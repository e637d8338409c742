package graph

import (
	"math"
	"sync"
	"testing"

	"gpml/internal/value"
)

// bruteNDV counts the value.Eq classes of a property's non-NULL values
// over a store's live nodes carrying a label, by a full scan comparing
// each value with one member of every class found so far — independent
// of the index keys.
func bruteNDV(s Store, label, prop string) int {
	var classes []value.Value
	s.Nodes(func(n *Node) bool {
		v := n.Props[prop]
		if v.IsNull() || !n.HasLabel(label) {
			return true
		}
		for _, c := range classes {
			if value.Eq(c, v) == value.True {
				return true
			}
		}
		classes = append(classes, v)
		return true
	})
	return len(classes)
}

// TestPropNDV checks the per-(label, property) distinct counts the join
// planner prices equality predicates with: they equal a brute-force count
// on the map, CSR, tombstoned (compacted overlay, with dead holes) and
// recovered stores; each pair is counted at most once per core; and
// publishing an overlay epoch reuses its base core's table instead of
// recounting.
func TestPropNDV(t *testing.T) {
	ov, ref := overlayFixture(t)
	ov.Compact()

	dir := t.TempDir()
	dur, _ := openRecovered(t, DurableOptions{Dir: dir, CompactThreshold: -1})
	b := dur.Begin()
	ref.Nodes(func(n *Node) bool {
		b.AddNode(n.ID, n.Labels, n.Props)
		return true
	})
	if err := dur.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dur.CloseDurable()
	rec, _ := openRecovered(t, DurableOptions{Dir: dir, CompactThreshold: -1})
	defer rec.CloseDurable()

	pairs := [][2]string{
		{"Account", "owner"}, {"Vip", "owner"}, {"City", "owner"},
		{"Account", "missing"}, {"NoSuchLabel", "owner"},
	}
	for _, st := range []struct {
		name string
		s    Store
	}{
		{"map", ref},
		{"csr", Snapshot(ref)},
		{"tombstoned-overlay", ov},
		{"recovered", rec},
	} {
		for _, lp := range pairs {
			got := st.s.LabelStats().PropNDV(lp[0], lp[1])
			if want := bruteNDV(st.s, lp[0], lp[1]); got != want {
				t.Errorf("%s: PropNDV(%s, %s) = %d, want %d", st.name, lp[0], lp[1], got, want)
			}
		}
	}
	if n := bruteNDV(ov, "Account", "owner"); n < 2 {
		t.Fatalf("fixture too small to tell counts apart: %d owners", n)
	}

	// At most once per core: repeated asks through fresh statistics hit
	// the table, also when concurrent plans ask at once.
	csr := Snapshot(ref)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			csr.LabelStats().PropNDV("Account", "owner")
		}()
	}
	wg.Wait()
	csr.LabelStats().PropNDV("Account", "owner")
	if n := csr.eq.builds.Load(); n != 1 {
		t.Errorf("one pair counted %d times on one core", n)
	}

	// Publishing an epoch reuses the base core's table.
	base := ov.Snapshot().base
	scans := base.eq.builds.Load()
	if err := ov.Apply(ov.Begin().AddNode("zed", []string{"Account"}, map[string]value.Value{"owner": value.Str("zed")})); err != nil {
		t.Fatal(err)
	}
	if ov.Snapshot().base != base {
		t.Fatal("a one-node batch compacted the overlay")
	}
	st := ov.LabelStats()
	if st.core != &base.elemCore {
		t.Error("the new epoch's statistics do not share the base core's table")
	}
	st.PropNDV("Account", "owner")
	if n := base.eq.builds.Load(); n != scans {
		t.Errorf("publishing an epoch recounted: %d scans, was %d", n, scans)
	}
	if (StoreStats{}).PropNDV("Account", "owner") != 0 {
		t.Error("hand-built statistics must report an unknown count as 0")
	}
}

// TestPropNDVEqClasses checks that distinct counts follow value.Eq, the
// equality the index buckets group by: values a WHERE calls equal are one
// value, NULL is none.
func TestPropNDVEqClasses(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []value.Value
		want int
	}{
		{"int 1 and float 1.0 count once", []value.Value{value.Int(1), value.Float(1), value.Int(2)}, 2},
		{"NaN counts once", []value.Value{value.Float(math.NaN()), value.Float(math.NaN()), value.Float(1)}, 2},
		{"-0 and +0 count once", []value.Value{value.Float(math.Copysign(0, -1)), value.Int(0)}, 1},
		{"kinds stay apart", []value.Value{value.Str("1"), value.Int(1), value.Bool(true)}, 3},
		{"NULL is not counted", []value.Value{value.Null, value.Str("a")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New()
			for i, v := range tc.vals {
				if err := g.AddNode(NodeID(rune('a'+i)), []string{"N"}, map[string]value.Value{"p": v}); err != nil {
					t.Fatal(err)
				}
			}
			if got := Snapshot(g).LabelStats().PropNDV("N", "p"); got != tc.want {
				t.Errorf("PropNDV = %d, want %d", got, tc.want)
			}
			if got := bruteNDV(g, "N", "p"); got != tc.want {
				t.Errorf("brute count = %d, want %d", got, tc.want)
			}
		})
	}
}
