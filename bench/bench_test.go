package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gpml"
)

// One SNB graph for every test that needs pools: generation is the bulk
// of this package's test time.
var (
	snbOnce sync.Once
	snbData *graphData
)

func testSNB() *graphData {
	snbOnce.Do(func() { snbData = newSNB() })
	return snbData
}

func scheduleJSON(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	d := loadFig1()
	if w.snb {
		d = testSNB()
	}
	sched, err := w.schedule(d, "..", rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := scheduleJSON(t, w, 7), scheduleJSON(t, w, 7), scheduleJSON(t, w, 8)
		if string(a) != string(b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if !w.snb {
			continue
		}
		// A different seed must draw different parameters, not merely
		// another order of the same ones.
		params := func(raw []byte) map[string]bool {
			var sched []request
			if err := json.Unmarshal(raw, &sched); err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			for _, r := range sched {
				set[r.key()] = true
			}
			return set
		}
		if reflect.DeepEqual(params(a), params(c)) {
			t.Errorf("%s: seeds 7 and 8 drew the same parameters", w.name)
		}
	}
}

func TestFig1ScheduleNeverRepeatsAKey(t *testing.T) {
	w, _ := findWorkload("fig1_adhoc")
	sched, err := w.schedule(loadFig1(), "..", rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 256 {
		t.Fatalf("cycle length %d, want 256", len(sched))
	}
	for _, r := range sched {
		if !r.Unique || strings.Count(r.Query, uniqMark) != 1 {
			t.Fatalf("%s: want exactly one %s in %q", r.Shape, uniqMark, r.Query)
		}
		if r.text("a") == r.text("b") {
			t.Fatalf("%s: literal does not vary the text", r.Shape)
		}
	}
}

func TestAddUniqPredicate(t *testing.T) {
	pred := "'" + uniqMark + "' <> ''"
	for _, tc := range []struct{ in, want string }{
		{"MATCH (x:Account)", "MATCH (x:Account) WHERE " + pred},
		{"MATCH (x WHERE x.a=1)-[e WHERE e.b=2]->(y)", "MATCH (x WHERE x.a=1)-[e WHERE e.b=2]->(y) WHERE " + pred},
		{"MATCH (x)-[:T]->(y)\nWHERE x.a=1 OR y.a=2", "MATCH (x)-[:T]->(y)\nWHERE ( x.a=1 OR y.a=2) AND " + pred},
	} {
		got, err := addUniqPredicate(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("addUniqPredicate(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
}

func TestParseFig1Case(t *testing.T) {
	raw := "# comment\ngraph: fig1\nquery:\nMATCH (x:Account)\n-- result --\nx \n--\na1\na2\n-- table --\nignored\n"
	c, ok, err := parseFig1Case(raw)
	if err != nil || !ok || c.goldenRows != 2 {
		t.Fatalf("got %+v ok=%v err=%v; want 2 golden rows", c, ok, err)
	}
	if _, ok, err := parseFig1Case(strings.Replace(raw, "fig1", "cyclic", 1)); ok || err != nil {
		t.Fatalf("a case on another graph must be skipped, got ok=%v err=%v", ok, err)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {95, 48}, {100, 50}, {25, 20}, {62.5, 35}} {
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestThroughputCountsFullCycles(t *testing.T) {
	// One client, cycle length 2: requests of 1 s each back to back, the
	// fifth leaves a partial cycle that must not count.
	var s []sample
	for i := 0; i < 5; i++ {
		s = append(s, sample{start: float64(i), end: float64(i) + 1, rows: 10})
	}
	// A stall: the second cycle takes twice as long.
	s[3].end, s[4].start, s[4].end = 6, 6, 7
	qps, rps, cycles := loopResult{perClient: [][]sample{s}}.throughput(2)
	if cycles != 2 {
		t.Fatalf("cycles = %d, want 2", cycles)
	}
	// Cycle rates are 2/2 s and 2/4 s; the median of two is their mean.
	if math.Abs(qps-0.75) > 1e-9 || math.Abs(rps-7.5) > 1e-9 {
		t.Errorf("qps %v rows/s %v, want 0.75 and 7.5", qps, rps)
	}
	// Two clients add up.
	qps2, _, cycles2 := loopResult{perClient: [][]sample{s, s}}.throughput(2)
	if cycles2 != 4 || math.Abs(qps2-1.5) > 1e-9 {
		t.Errorf("two clients: qps %v cycles %d, want 1.5 and 4", qps2, cycles2)
	}
	// Fewer samples than a cycle: plain count over the busy span.
	qps3, _, cycles3 := loopResult{perClient: [][]sample{s[:1]}}.throughput(2)
	if cycles3 != 0 || math.Abs(qps3-1) > 1e-9 {
		t.Errorf("short run: qps %v cycles %d, want 1 and 0", qps3, cycles3)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	if got := dueTime(100, 50); got != 2 {
		t.Fatalf("batch 100 at 50/s is due at %v s, want 2", got)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, tc := range []struct {
		what                         string
		due, prevDone, started, done float64
		latency, late                float64
	}{
		{"started on time: the service time", 2, 1.99, 2, 2.004, 0.004, 0},
		{"behind a stalled batch: the wait is charged, none of it is lateness", 2, 2.03, 2.03, 2.034, 0.034, 0},
		{"woken 10 ms late: charged, and reported as lateness", 2, 1.99, 2.01, 2.014, 0.014, 0.01},
		{"stalled, then woken late", 2, 2.03, 2.035, 2.039, 0.039, 0.005},
		{"running early is not negative lateness", 2, 1.9, 1.999, 2.001, 0.001, 0},
	} {
		lat, late := openLoopLatency(tc.due, tc.prevDone, tc.started, tc.done)
		if !near(lat, tc.latency) || !near(late, tc.late) {
			t.Errorf("%s: latency %v late %v, want %v and %v", tc.what, lat, late, tc.latency, tc.late)
		}
	}
}

func TestAnswerIgnoresRowOrder(t *testing.T) {
	var a, b, c answer
	a.add([]string{"x", "y"})
	a.add([]string{"p", "q"})
	b.add([]string{"p", "q"})
	b.add([]string{"x", "y"})
	c.add([]string{"xy", ""})
	c.add([]string{"p", "q"})
	if a != b {
		t.Error("row order changed the digest")
	}
	if a == c {
		t.Error("cell boundaries do not reach the digest")
	}
}

func TestWriteGenModelMatchesTheStore(t *testing.T) {
	d := loadFig1()
	ov := gpml.NewOverlayFromCSR(d.store)
	gen := newWriteGen(labelledIDs(d.store, "Account"), 1)
	for i := 0; i < 3*scratchLag; i++ {
		b := gen.stage(ov)
		if b.Len() != opsPerBatch {
			t.Fatalf("batch %d has %d ops, want %d", i, b.Len(), opsPerBatch)
		}
		if err := ov.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		gen.acked()
	}
	if gen.nodes != 4*scratchLag {
		t.Errorf("model keeps %d scratch nodes alive, want %d", gen.nodes, 4*scratchLag)
	}
	if ov.NumNodes() != d.g.NumNodes()+gen.nodes || ov.NumEdges() != d.g.NumEdges()+gen.edges {
		t.Errorf("store has %d nodes / %d edges, model says %d / %d",
			ov.NumNodes(), ov.NumEdges(), d.g.NumNodes()+gen.nodes, d.g.NumEdges()+gen.edges)
	}
}

func TestCompareAA(t *testing.T) {
	mk := func(v float64) *runOutput {
		o := &runOutput{Workload: "w", Metrics: map[string]measured{}}
		for _, d := range endToEnd {
			o.Metrics[d.Name] = measured{Value: 100, Unit: d.Unit}
		}
		o.Metrics["throughput_qps"] = measured{Value: v}
		return o
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "throughput_qps" {
			bound = d.Bound
		}
	}
	// A move either way counts: two runs of one binary have no better side.
	for _, tc := range []struct {
		b      float64
		breach bool
	}{
		{100, false},
		{100 * (1 - 0.9*bound), false}, {100 * (1 + 0.9*bound), false},
		{100 * (1 - 1.1*bound), true}, {100 * (1 + 1.1*bound), true},
	} {
		for _, r := range compareAA([]*runOutput{mk(100)}, []*runOutput{mk(tc.b)}) {
			if r.Metric == "throughput_qps" && r.Breach != tc.breach {
				t.Errorf("100 → %v: breach %v, want %v (bound %v)", tc.b, r.Breach, tc.breach, r.Bound)
			}
			if r.Metric != "throughput_qps" && r.Breach {
				t.Errorf("%s did not move and is reported as a breach", r.Metric)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables here are what the
// program prints. They must name the same things.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", doc.PerLayer, perLayer)
	}
}
