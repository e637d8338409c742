// Bench-scale tier: enumeration throughput, first-row latency and
// bind-join speed on the LDBC-SNB-flavored graph (internal/dataset SNB)
// as a function of scale factor on the CSR snapshot (`/sf=<f>`), one
// benchmark cell per scale factor; compare cells across changes with
// `go test -bench`.
//
// The enumeration queries use a {1,2} quantifier so the work is path
// stepping over the adjacency arena rather than row materialization.
//
// Defaults stay laptop-sized (SF 0.1). Larger sweeps opt in via
// GPML_SCALE_SF (comma-separated scale factors, e.g. "0.1,1,3").
package gpml_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gpml"
	"gpml/internal/dataset"
)

// scaleEnumerateQuery walks one- and two-hop knows neighbourhoods of one
// country's persons (1/50th of the population, so work scales with SF
// without the hub-squared blowup of the unrestricted two-hop set). The
// trailing WHERE keeps the emitted row set small while the traversal
// still visits every quantified path, so iterations measure stepping
// throughput rather than row materialization.
const scaleEnumerateQuery = `MATCH (a:Person WHERE a.country = 'country7')-[:knows]-{1,2}(b:Person) WHERE b.firstName = 'p7'`

// scaleFirstRowQuery enumerates without the target filter; first-row
// latency is the time to the head of the globally-ordered result stream.
// country0 holds person 0, the biggest knows hub.
const scaleFirstRowQuery = `MATCH (a:Person WHERE a.country = 'country0')-[:knows]-{1,2}(b:Person)`

// scaleBindJoinQuery seeds a quantified expansion from a selective flat
// pattern: one country's forum moderators, then their knows
// neighbourhood. The quantifier keeps the join in the row pipeline's
// bind-join.
const scaleBindJoinQuery = `MATCH (f:Forum)-[:hasModerator]->(p:Person WHERE p.country = 'country7'), (p)-[:knows]-{1,2}(q:Person)`

// scaleLims raises the match cap: two-hop neighbourhoods of a Zipf
// network legitimately pass the default 1M raw-match bound at SF >= 1.
var scaleLims = gpml.Limits{MaxMatches: 100_000_000}

var (
	scaleMu       sync.Mutex
	scaleCSRCache = map[float64]gpml.Store{}
)

// scaleCSR builds (once per process per scale factor) the CSR snapshot
// of the seeded SNB graph the tier runs against.
func scaleCSR(sf float64) gpml.Store {
	scaleMu.Lock()
	defer scaleMu.Unlock()
	csr, ok := scaleCSRCache[sf]
	if !ok {
		csr = gpml.Snapshot(dataset.SNB(dataset.SNBConfig{ScaleFactor: sf, Seed: 42}))
		scaleCSRCache[sf] = csr
	}
	return csr
}

// scaleSFs reports the scale factors to sweep: SF 0.1 by default,
// overridden by the comma-separated GPML_SCALE_SF list.
func scaleSFs(tb testing.TB) []float64 {
	env := os.Getenv("GPML_SCALE_SF")
	if env == "" {
		return []float64{0.1}
	}
	var sfs []float64
	for _, f := range strings.Split(env, ",") {
		sf, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || sf <= 0 {
			tb.Fatalf("bad GPML_SCALE_SF entry %q: %v", f, err)
		}
		sfs = append(sfs, sf)
	}
	return sfs
}

// benchScaleEval times full evaluation of src at every scale factor.
func benchScaleEval(b *testing.B, src string) {
	q := gpml.MustCompile(src)
	for _, sf := range scaleSFs(b) {
		csr := scaleCSR(sf)
		b.Run(fmt.Sprintf("sf=%g", sf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.EvalStore(csr, gpml.WithLimits(scaleLims)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaleEnumerate(b *testing.B) { benchScaleEval(b, scaleEnumerateQuery) }

func BenchmarkScaleBindJoin(b *testing.B) { benchScaleEval(b, scaleBindJoinQuery) }

func BenchmarkScaleFirstRow(b *testing.B) {
	q := gpml.MustCompile(scaleFirstRowQuery)
	for _, sf := range scaleSFs(b) {
		csr := scaleCSR(sf)
		b.Run(fmt.Sprintf("sf=%g", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := q.Stream(context.Background(), csr, gpml.WithLimits(scaleLims))
				if err != nil {
					b.Fatal(err)
				}
				if !rows.Next() {
					b.Fatal("no rows")
				}
				rows.Close()
			}
		})
	}
}
