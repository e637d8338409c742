package graph

import (
	"fmt"
	"path/filepath"
	"reflect"
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
		if got, ok := internNode(st, n.ID); !ok || int(got) != i {
			t.Fatalf("InternNode(%q) = %d,%v, want %d", n.ID, got, ok, i)
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

// Every indexed view of one graph — a CSR snapshot, the map graph's
// memoized snapshot and the transient snapshot of a foreign store — must
// expose the identical step relation, including the self-loop and
// multi-edge corners.
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
		"map":     AsStepper(g),
		"foreign": AsStepper(hideStepper{csr}),
	} {
		if got := stepSet(t, st); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("step relations diverge:\ncsr: %v\n%s: %v", want, name, got)
		}
	}
}

// Steps must agree with the map graph's Incident on every Stepper: a CSR,
// an overlay epoch with a delta and tombstones, and a CSR loaded back
// from a checkpoint. Each node visits the same edges in the same order, a
// self-loop once, and the step kinds reflect direction and self-loops.
func TestStepsMatchIncident(t *testing.T) {
	g := conformanceGraph(t)
	ov, ref := overlayFixture(t)
	path := filepath.Join(t.TempDir(), "ckpt.ck")
	if err := writeCheckpoint(path, compactBase(ov.Snapshot()), 0, 0); err != nil {
		t.Fatal(err)
	}
	loaded, _, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   Stepper
		ref  *Graph
	}{
		{"csr", Snapshot(g), g},
		{"overlay-epoch", ov.Snapshot(), ref},
		{"checkpoint", loaded, ref},
	} {
		st := tc.st
		for _, id := range tc.ref.NodeIDs() {
			if got, want := stepIncident(st, id), tc.ref.IncidentIDs(id); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: node %s: steps %v != incident %v", tc.name, id, got, want)
			}
			i, _ := internNode(st, id)
			st.Steps(int(i), func(edge, _ int, kind StepKind) bool {
				e := st.EdgeByIndex(edge)
				switch kind {
				case StepOut:
					if e.Direction != Directed || e.Source != id || e.IsLoop() {
						t.Errorf("%s: bad StepOut %s at %s", tc.name, e.ID, id)
					}
				case StepIn:
					if e.Direction != Directed || e.Target != id || e.IsLoop() {
						t.Errorf("%s: bad StepIn %s at %s", tc.name, e.ID, id)
					}
				case StepLoop:
					if e.Direction != Directed || !e.IsLoop() {
						t.Errorf("%s: bad StepLoop %s at %s", tc.name, e.ID, id)
					}
				case StepUndirected:
					if e.Direction != Undirected {
						t.Errorf("%s: bad StepUndirected %s at %s", tc.name, e.ID, id)
					}
				}
				return true
			})
		}
	}
}

// Early termination: the iterator stops when f returns false.
func TestStepsEarlyStop(t *testing.T) {
	g := conformanceGraph(t)
	for _, st := range []Stepper{Snapshot(g), AsStepper(Store(g))} {
		i, _ := internNode(st, "a")
		count := 0
		st.Steps(int(i), func(int, int, StepKind) bool {
			count++
			return false
		})
		if count != 1 {
			t.Errorf("early stop visited %d steps", count)
		}
	}
}

// TestStoreSurfaceHasNoInterner pins the two method sets: a third-party
// backend implements the nine Store methods, and the index side is the six
// Stepper methods. The id interner stays off both; it is a concrete method
// of the core and of overlay epochs.
func TestStoreSurfaceHasNoInterner(t *testing.T) {
	methods := func(typ reflect.Type) []string {
		var out []string
		for i := 0; i < typ.NumMethod(); i++ {
			out = append(out, typ.Method(i).Name)
		}
		return out
	}
	store := []string{"CountNodesWithLabel", "Edge", "Edges", "LabelStats", "Node", "Nodes", "NodesWithLabel", "NumEdges", "NumNodes"}
	if got := methods(reflect.TypeOf((*Store)(nil)).Elem()); !reflect.DeepEqual(got, store) {
		t.Errorf("Store methods = %v, want %v", got, store)
	}
	stepper := append([]string{"EdgeByIndex", "EdgeEnds", "NodeByIndex", "NodeIndexSpan", "NodesWithLabelIdx", "Steps"}, store...)
	sort.Strings(stepper)
	if got := methods(reflect.TypeOf((*Stepper)(nil)).Elem()); !reflect.DeepEqual(got, stepper) {
		t.Errorf("Stepper methods = %v, want %v", got, stepper)
	}
}
