package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// aaRow compares one metric of one workload between the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Diff is |B−A|/A: two runs of the same binary have no better side,
	// so a move either way by more than the bound is noise the bound
	// cannot tell from a regression.
	Diff   float64 `json:"diff"`
	Bound  float64 `json:"bound"`
	Breach bool    `json:"breach"`
}

// relDiff is |b−a| as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	d := (b - a) / a
	if d < 0 {
		d = -d
	}
	return d
}

// compareAA lines up two sets of runs of the same workloads.
func compareAA(a, b []*runOutput) []aaRow {
	byName := map[string]*runOutput{}
	for _, o := range b {
		byName[o.Workload] = o
	}
	var rows []aaRow
	for _, oa := range a {
		ob := byName[oa.Workload]
		for _, d := range endToEnd {
			va, vb := oa.Metrics[d.Name].Value, ob.Metrics[d.Name].Value
			diff := relDiff(va, vb)
			rows = append(rows, aaRow{oa.Workload, d.Name, va, vb, diff, d.Bound, diff > d.Bound})
		}
	}
	return rows
}

// runAA runs the set twice on the same binary — forward, then in reverse
// order, so a workload's neighbours differ between the sets — and fails
// when any end-to-end metric moved by more than its bound.
func runAA(base runConfig, env environment, stdout, stderr io.Writer) int {
	base.trace = false
	set := workloads
	a, err := runSet(base, set, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rev := make([]workload, len(set))
	for i, w := range set {
		rev[len(set)-1-i] = w
	}
	b, err := runSet(base, rev, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compareAA(a, b)
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdiff\tbound\t")
	for _, r := range rows {
		flag := ""
		if r.Breach {
			flag, code = "BREACH", 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n", r.Workload, r.Metric, r.A, r.B, r.Diff*100, r.Bound*100, flag)
	}
	tw.Flush()
	for _, o := range append(a, b...) {
		if !o.Correct {
			code = 1
		}
	}
	doc := struct {
		Env     environment  `json:"env"`
		Seconds float64      `json:"seconds"`
		A       []*runOutput `json:"a"`
		B       []*runOutput `json:"b"`
		Rows    []aaRow      `json:"rows"`
	}{env, base.seconds, a, b, rows}
	if err := writeResult(base.outDir, doc, "aa.json"); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}
