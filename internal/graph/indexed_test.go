package graph

import (
	"fmt"
	"sort"
	"testing"
)

// stepSet renders a Stepper's full step relation as sorted strings, for
// cross-implementation comparison.
func stepSet(t *testing.T, st Stepper) []string {
	t.Helper()
	var out []string
	for i := 0; i < st.NumNodes(); i++ {
		n := st.NodeByIndex(i)
		if got, ok := st.NodeIndex(n.ID); !ok || got != i {
			t.Fatalf("NodeIndex(%q) = %d,%v, want %d", n.ID, got, ok, i)
		}
		st.Steps(i, func(edge, other int, kind StepKind) bool {
			e := st.EdgeByIndex(edge)
			out = append(out, fmt.Sprintf("%s -%s(%s)-> %s", n.ID, e.ID, kind, st.NodeByIndex(other).ID))
			return true
		})
	}
	sort.Strings(out)
	return out
}

// hideStepper wraps a store so only the Store methods show: the shape of
// a third-party backend, which AsStepper must snapshot.
type hideStepper struct{ Store }

// Every indexed view of one graph — a CSR snapshot, a partitioned
// snapshot, the map graph's memoized snapshot and the transient snapshot
// of a foreign store — must expose the identical step relation, including
// the self-loop and multi-edge corners.
func TestStepperConformance(t *testing.T) {
	g := conformanceGraph(t)
	csr := Snapshot(g)
	if _, isNative := Store(g).(Stepper); isNative {
		t.Fatalf("map graph unexpectedly implements Stepper; the memoized-snapshot path is untested")
	}
	if st := AsStepper(csr); st != Stepper(csr) {
		t.Errorf("AsStepper(CSR) must return the CSR itself")
	}
	want := stepSet(t, csr)
	if len(want) == 0 {
		t.Fatalf("empty step relation")
	}
	for name, st := range map[string]Stepper{
		"map":         AsStepper(g),
		"foreign":     AsStepper(hideStepper{csr}),
		"partitioned": PartitionSnapshot(g, PartitionOptions{Partitions: 3}),
	} {
		if got := stepSet(t, st); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("step relations diverge:\ncsr: %v\n%s: %v", want, name, got)
		}
	}
}

// Steps must agree with Incident: same edges touch each node, and the
// step kinds reflect direction and self-loops.
func TestStepsMatchIncident(t *testing.T) {
	g := conformanceGraph(t)
	csr := Snapshot(g)
	for i := 0; i < csr.NumNodes(); i++ {
		n := csr.NodeByIndex(i)
		var fromSteps, fromIncident []string
		csr.Steps(i, func(edge, other int, kind StepKind) bool {
			e := csr.EdgeByIndex(edge)
			fromSteps = append(fromSteps, string(e.ID))
			switch kind {
			case StepOut:
				if e.Direction != Directed || e.Source != n.ID || e.IsLoop() {
					t.Errorf("bad StepOut %s at %s", e.ID, n.ID)
				}
			case StepIn:
				if e.Direction != Directed || e.Target != n.ID || e.IsLoop() {
					t.Errorf("bad StepIn %s at %s", e.ID, n.ID)
				}
			case StepLoop:
				if e.Direction != Directed || !e.IsLoop() {
					t.Errorf("bad StepLoop %s at %s", e.ID, n.ID)
				}
			case StepUndirected:
				if e.Direction != Undirected {
					t.Errorf("bad StepUndirected %s at %s", e.ID, n.ID)
				}
			}
			return true
		})
		csr.Incident(n.ID, func(e *Edge) bool {
			fromIncident = append(fromIncident, string(e.ID))
			return true
		})
		sort.Strings(fromSteps)
		sort.Strings(fromIncident)
		if fmt.Sprint(fromSteps) != fmt.Sprint(fromIncident) {
			t.Errorf("node %s: steps %v != incident %v", n.ID, fromSteps, fromIncident)
		}
	}
}

// Early termination: the iterator stops when f returns false.
func TestStepsEarlyStop(t *testing.T) {
	g := conformanceGraph(t)
	for _, st := range []Stepper{Snapshot(g), AsStepper(Store(g))} {
		i, _ := st.NodeIndex("a")
		count := 0
		st.Steps(i, func(int, int, StepKind) bool {
			count++
			return false
		})
		if count != 1 {
			t.Errorf("early stop visited %d steps", count)
		}
	}
}
