package main

import (
	"fmt"
	"math/rand"

	"gpml"
	"gpml/internal/graph"
)

const (
	opsPerBatch = 16
	writeRate   = 50.0 // batches per second, open loop
	// scratchLag is how many generations of Scratch elements stay alive:
	// batch i detach-deletes what batch i−scratchLag added, so live size
	// is bounded while the delta keeps collecting tombstones.
	scratchLag = 8
)

// writeGen generates the seeded mutation batches of snb_mixed_rw. Every
// batch is opsPerBatch operations that leave all read answers unchanged:
// it adds Scratch-labelled nodes and edges (two of the edges attached to
// Person nodes, so delta adjacency is merged on the read path), sets an
// unread `touched` property on Person nodes (copy-on-write overrides),
// and detach-deletes an earlier generation. It also keeps the model of
// what must be alive after the batches acknowledged so far.
type writeGen struct {
	persons []graph.NodeID
	rng     *rand.Rand
	next    int // ordinal of the next batch
	nodes   int // live Scratch nodes after acknowledged batches
	edges   int // live Scratch edges after acknowledged batches
}

func newWriteGen(persons []graph.NodeID, seed int64) *writeGen {
	return &writeGen{persons: persons, rng: rand.New(rand.NewSource(seed))}
}

func scratchNode(batch, j int) graph.NodeID { return graph.NodeID(fmt.Sprintf("s%d_%d", batch, j)) }
func scratchEdge(batch, j int) graph.EdgeID { return graph.EdgeID(fmt.Sprintf("se%d_%d", batch, j)) }

// stage builds batch number g.next; acked must follow a successful Apply.
func (g *writeGen) stage(ov *graph.Overlay) *graph.Batch {
	i := g.next
	label := []string{"Scratch"}
	person := func() graph.NodeID { return g.persons[g.rng.Intn(len(g.persons))] }
	b := ov.Begin()
	for j := 0; j < 4; j++ {
		b.AddNode(scratchNode(i, j), label, map[string]gpml.Value{"gen": gpml.Int(int64(i))})
	}
	b.AddEdge(scratchEdge(i, 0), scratchNode(i, 0), scratchNode(i, 1), label, nil)
	b.AddEdge(scratchEdge(i, 1), scratchNode(i, 2), scratchNode(i, 3), label, nil)
	b.AddEdge(scratchEdge(i, 2), scratchNode(i, 0), person(), label, nil)
	b.AddEdge(scratchEdge(i, 3), person(), scratchNode(i, 2), label, nil)
	touches := 4
	if i < scratchLag {
		touches = 8 // nothing to delete yet: keep the batch at 16 ops
	}
	for j := 0; j < touches; j++ {
		b.SetNodeProp(person(), "touched", gpml.Int(int64(i)))
	}
	if i >= scratchLag {
		for j := 0; j < 4; j++ {
			b.DeleteNode(scratchNode(i-scratchLag, j))
		}
	}
	return b
}

// acked records that the staged batch was applied.
func (g *writeGen) acked() {
	if g.next < scratchLag {
		g.nodes += 4
		g.edges += 4
	}
	g.next++
}
