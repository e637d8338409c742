package graph

import (
	"sync"
	"testing"

	"gpml/internal/value"
)

// bruteNDV counts distinct property values over a store's live nodes
// carrying a label by a full scan, independent of the core's table.
func bruteNDV(s Store, label, prop string) int {
	seen := map[value.Value]struct{}{}
	s.Nodes(func(n *Node) bool {
		if v, ok := n.Props[prop]; ok && n.HasLabel(label) {
			seen[v] = struct{}{}
		}
		return true
	})
	return len(seen)
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
	if csr.ndv.scans != 1 {
		t.Errorf("one pair counted %d times on one core", csr.ndv.scans)
	}

	// Publishing an epoch reuses the base core's table.
	base := ov.Snapshot().base
	scans := base.ndv.scans
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
	if base.ndv.scans != scans {
		t.Errorf("publishing an epoch recounted: %d scans, was %d", base.ndv.scans, scans)
	}
	if (StoreStats{}).PropNDV("Account", "owner") != 0 {
		t.Error("hand-built statistics must report an unknown count as 0")
	}
}
