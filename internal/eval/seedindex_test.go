package eval

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// seedEnd is one end position of a pattern as forEachNode reads it.
type seedEnd struct {
	name   string
	labels []string
	eqs    []plan.EqConjunct
	node   *ast.NodePattern // the node pattern binding the end, when the path starts (ends) with one
}

func patternEnds(pp *plan.PathPlan) []seedEnd {
	return []seedEnd{
		{"head", pp.SeedLabels, pp.HeadEq, endNode(pp.Pattern.Expr, false)},
		{"tail", pp.TailLabels, pp.TailEq, endNode(pp.Pattern.Expr, true)},
	}
}

// endNode returns the node pattern a path expression starts (fromTail:
// ends) with, or nil.
func endNode(e ast.PathExpr, fromTail bool) *ast.NodePattern {
	switch x := e.(type) {
	case *ast.NodePattern:
		return x
	case *ast.Concat:
		if fromTail {
			return endNode(x.Elems[len(x.Elems)-1], true)
		}
		return endNode(x.Elems[0], false)
	}
	return nil
}

// endCandidates collects an end's candidates from forEachNode — through
// the equality index when eqs is set, the label scan when nil — keeping
// those the end's node pattern and equality conjuncts accept.
func endCandidates(t *testing.T, st graph.Stepper, end seedEnd, eqs []plan.EqConjunct, params Params) []int {
	t.Helper()
	var out []int
	forEachNode(st, end.labels, eqs, params, func(i int) bool {
		n := st.NodeByIndex(i)
		ok := true
		for _, l := range end.labels {
			ok = ok && n.HasLabel(l)
		}
		for _, eq := range end.eqs {
			v, err := EvalValue(eq.Operand, elemResolver{params: params})
			if err != nil {
				t.Fatal(err)
			}
			ok = ok && value.Eq(n.Prop(eq.Prop), v) == value.True
		}
		if np := end.node; ok && np != nil {
			ok = np.Label == nil || np.Label.Matches(n.Labels)
			if ok && np.Where != nil {
				tri, err := EvalPred(np.Where, elemResolver{st, np.Var, binding.Ref{Kind: binding.NodeElem, Idx: graph.ElemIdx(i)}, params})
				if err != nil {
					t.Fatal(err)
				}
				ok = tri.IsTrue()
			}
		}
		if ok {
			out = append(out, i)
		}
		return true
	})
	return out
}

// mutateEnds builds an overlay epoch over g whose delta, for every
// (label, property, value) an end filters on, adds a matching node and a
// labelled node without the property, tombstones a matching node,
// overrides matching nodes' property to a new value and to NULL, removes
// the label from one, and sets a non-matching node's property to the
// value — every way an epoch can move a node into or out of a bucket.
func mutateEnds(t *testing.T, g *graph.Graph, pp *plan.PathPlan, params Params) graph.Store {
	t.Helper()
	ov := graph.NewOverlay(graph.Snapshot(g))
	b := ov.Begin()
	touched := map[graph.NodeID]bool{}
	k := 0
	for _, end := range patternEnds(pp) {
		for _, l := range end.labels {
			for _, eq := range end.eqs {
				v, err := EvalValue(eq.Operand, elemResolver{params: params})
				if err != nil {
					t.Fatal(err)
				}
				k++
				b.AddNode(graph.NodeID(fmt.Sprintf("ix-add-%d", k)), []string{l}, map[string]value.Value{eq.Prop: v})
				b.AddNode(graph.NodeID(fmt.Sprintf("ix-bare-%d", k)), []string{l}, nil)
				var hits, misses []graph.NodeID
				g.NodesWithLabel(l, func(n *graph.Node) bool {
					if !touched[n.ID] {
						if value.Eq(n.Prop(eq.Prop), v) == value.True {
							hits = append(hits, n.ID)
						} else {
							misses = append(misses, n.ID)
						}
					}
					return true
				})
				for j, id := range hits {
					touched[id] = true
					switch j {
					case 0:
						b.DeleteNode(id)
					case 1:
						b.SetNodeProp(id, eq.Prop, value.Str("ix-changed"))
					case 2:
						b.SetNodeProp(id, eq.Prop, value.Null)
					case 3:
						b.SetNodeLabels(id, []string{"IxOther"})
					default:
						touched[id] = false
					}
				}
				if len(misses) > 0 {
					touched[misses[0]] = true
					b.SetNodeProp(misses[0], eq.Prop, v)
				}
			}
		}
	}
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	return ov
}

// TestIndexSeedsMatchLabelScan is the seed oracle battery: for every
// single-pattern conformance query and the four snb_prepared_short texts,
// on a CSR, on an overlay epoch whose delta moves nodes into and out of
// the filtered buckets, and on a checkpoint-recovered store, each end's
// index-backed candidates, filtered by the end's node pattern, equal the
// label scan's filtered the same way, in the same order; and the index
// path is taken wherever an end has an equality conjunct on a proven
// label.
func TestIndexSeedsMatchLabelScan(t *testing.T) {
	type seedCase struct {
		name, query string
		g           *graph.Graph
		params      Params
	}
	var cases []seedCase
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	for _, path := range files {
		query, name := readCorpusCase(t, path)
		build, ok := corpusGraphs[name]
		if !ok {
			t.Fatalf("%s: graph %q; add it to corpusGraphs", path, name)
		}
		cases = append(cases, seedCase{filepath.Base(path), query, build(), nil})
	}
	snb := dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.01, Seed: 1})
	for _, q := range []struct{ name, query string }{
		{"friends_1hop", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)`},
		{"friends_2hop", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)-[:knows]-(c:Person)`},
		{"likes_creator", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)-[:hasCreator]->(c:Person)`},
		{"country_likes", `MATCH (a:Person WHERE a.country=$country)-[l:likes]->(m:Post)`},
	} {
		cases = append(cases, seedCase{q.name, q.query, snb, Params{"name": value.Str("p7"), "country": value.Str("country7")}})
	}

	indexed := map[string]int{}
	singles := 0
	for _, c := range cases {
		p := compile(t, c.query, plan.Options{AllowElementEquality: true})
		if len(p.Paths) != 1 {
			continue
		}
		singles++
		pp := p.Paths[0]
		for _, ax := range []storeAxis{
			{"csr", graph.Snapshot(c.g)},
			{"overlay", mutateEnds(t, c.g, pp, c.params)},
			{"recovered", recoveredStore(t, c.g)},
		} {
			st := graph.AsStepper(ax.s)
			for _, end := range patternEnds(pp) {
				label := fmt.Sprintf("%s [%s] %s", c.name, ax.name, end.name)
				before := indexReads.Load()
				got := endCandidates(t, st, end, end.eqs, c.params)
				read := indexReads.Load() > before
				want := endCandidates(t, st, end, nil, c.params)
				if !slices.Equal(got, want) {
					t.Errorf("%s: index candidates %v, label scan %v", label, got, want)
				}
				if wantRead := len(end.labels) > 0 && len(end.eqs) > 0; read != wantRead {
					t.Errorf("%s: index path taken = %v, want %v", label, read, wantRead)
				}
				if read {
					indexed[ax.name]++
				}
			}
		}
	}
	if singles < 10 {
		t.Errorf("only %d single-pattern cases", singles)
	}
	for _, ax := range []string{"csr", "overlay", "recovered"} {
		if indexed[ax] < 6 {
			t.Errorf("%s: the index path served only %d ends", ax, indexed[ax])
		}
	}
}

// TestIndexSeedsNullAndUnbound pins the two operand edge cases: a NULL
// parameter yields no candidate (x.p = NULL is never TRUE), and an unbound
// parameter falls back to the label scan, so evaluation reports the same
// bind error as before.
func TestIndexSeedsNullAndUnbound(t *testing.T) {
	g := dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.01, Seed: 1})
	p := compile(t, `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)`, plan.Options{})
	st := graph.AsStepper(graph.Snapshot(g))
	n := 0
	forEachNode(st, p.Paths[0].SeedLabels, p.Paths[0].HeadEq, Params{"name": value.Null}, func(int) bool { n++; return true })
	if n != 0 {
		t.Errorf("a NULL operand yielded %d candidates", n)
	}
	forEachNode(st, p.Paths[0].SeedLabels, p.Paths[0].HeadEq, nil, func(int) bool { n++; return true })
	if want := st.CountNodesWithLabel("Person"); n != want {
		t.Errorf("an unbound operand yielded %d candidates, want the %d of the label scan", n, want)
	}
	_, err := EvalPlan(g, p, Config{})
	var bind *plan.BindError
	if !errors.As(err, &bind) || bind.Name != "name" {
		t.Errorf("unbound parameter: got %v, want a bind error for $name", err)
	}
}
