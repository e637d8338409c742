package gpml_test

import (
	"fmt"
	"log"

	"gpml"
)

// The basic flow: compile a GPML statement once, evaluate it against a
// property graph, and read the variable bindings.
func ExampleMatch() {
	g := gpml.Fig1() // the paper's Figure 1 banking graph
	res, err := gpml.Match(g, `MATCH (x:Account WHERE x.isBlocked='yes')`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		x, _ := row.Get("x")
		fmt.Println(x.Node, "owned by", owner(g, x.Node))
	}
	// Output:
	// a4 owned by Jay
}

func owner(g *gpml.Graph, id gpml.NodeID) string {
	return g.Node(id).Prop("owner").Display()
}

// Restrictors make unbounded path search finite: TRAIL forbids repeated
// edges (§5.1). The three duplicate-free transfer routes from Dave to
// Aretha are exactly those the paper lists.
func ExampleQuery_Eval_trail() {
	q := gpml.MustCompile(`
		MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		      (b WHERE b.owner='Aretha')`)
	res, err := q.Eval(gpml.Fig1())
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		fmt.Println(p.Path)
	}
	// Unordered output:
	// path(a6,t5,a3,t2,a2)
	// path(a6,t6,a5,t8,a1,t1,a3,t2,a2)
	// path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2)
}

// Selectors keep a finite choice per endpoint pair (Fig 8).
func ExampleQuery_Eval_anyShortest() {
	q := gpml.MustCompile(`
		MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		      (b WHERE b.owner='Aretha')`)
	res, err := q.Eval(gpml.Fig1())
	if err != nil {
		log.Fatal(err)
	}
	p, _ := res.Rows[0].Get("p")
	fmt.Println(p.Path)
	// Output:
	// path(a6,t5,a3,t2,a2)
}

// The SQL/PGQ host: project matches to a table with GRAPH_TABLE COLUMNS.
func ExampleGraphTable() {
	cols, err := gpml.ParseColumns("x.owner AS A, y.owner AS B, COUNT(e) AS hops")
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := gpml.GraphTable(gpml.Fig1(), `
		MATCH ANY SHORTEST (x:Account WHERE x.owner='Dave')-[e:Transfer]->+
		      (y:Account WHERE y.owner='Jay')`, cols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl.String())
	// Output:
	// A    | B   | hops
	// ---- | --- | ----
	// Dave | Jay | 3
}

// Group variables accumulate across quantifier iterations and aggregate in
// the postfilter (§4.4).
func ExampleMatch_groupAggregation() {
	res, err := gpml.Match(gpml.Fig1(), `
		MATCH (a:Account WHERE a.owner='Jay')
		      [()-[t:Transfer]->()]{1,4}
		      (b:Account WHERE b.owner='Aretha')
		WHERE SUM(t.amount) > 25M`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		t, _ := row.Get("t")
		fmt.Println(t)
	}
	// Output:
	// [t4,t5,t2]
}

// The overlay store serves live mutation under read traffic: writers
// batch mutations and publish them atomically, queries evaluate against
// epoch-pinned snapshots, and element indices stay stable across epochs.
func ExampleNewOverlay() {
	ov := gpml.NewOverlay(gpml.Fig1())
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='yes')`)

	// The paper's graph has one blocked account. Pin the pre-mutation
	// epoch: it stays valid and unchanged forever.
	epoch := ov.Snapshot()
	before, err := q.EvalStore(epoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("blocked before:", len(before.Rows))

	// Block a second account and add a fresh one, in one atomic batch.
	b := ov.Begin().
		SetNodeProp("a1", "isBlocked", gpml.Str("yes")).
		AddNode("a9", []string{"Account"}, map[string]gpml.Value{
			"owner": gpml.Str("Nia"), "isBlocked": gpml.Str("yes"),
		})
	if err := ov.Apply(b); err != nil {
		log.Fatal(err)
	}

	after, err := q.EvalStore(ov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("blocked after:", len(after.Rows))
	// Readers holding the pre-mutation epoch are unaffected: it still
	// sees one blocked account.
	again, err := q.EvalStore(epoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pinned epoch still:", len(again.Rows))
	// Output:
	// blocked before: 1
	// blocked after: 3
	// pinned epoch still: 1
}
