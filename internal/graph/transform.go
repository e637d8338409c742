package graph

// Reverse returns a copy of the graph with every directed edge's source
// and target swapped; undirected edges and all labels/properties are
// preserved. Useful for testing orientation semantics: matching <-[e]- on
// g is equivalent to matching -[e]-> on Reverse(g).
func Reverse(g *Graph) *Graph {
	out := New()
	g.Nodes(func(n *Node) bool {
		if err := out.AddNode(n.ID, n.Labels, n.Props); err != nil {
			panic(err) // fresh graph, same ids: unreachable
		}
		return true
	})
	g.Edges(func(e *Edge) bool {
		var err error
		if e.Direction == Directed {
			err = out.AddEdge(e.ID, e.Target, e.Source, e.Labels, e.Props)
		} else {
			err = out.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		if err != nil {
			panic(err)
		}
		return true
	})
	return out
}
