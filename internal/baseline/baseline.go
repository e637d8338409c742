// Package baseline implements the reference algorithms the engine is
// compared against in the benchmark harness: naive recursive path
// enumeration (the textbook expansion the paper's §6 formal model
// literally describes) and breadth-first shortest-path search over a
// single edge label (the "Dijkstra's algorithm" special case of §7.2's
// research question: GPML selectors must solve shortest paths for
// arbitrary regular expressions, while the classic algorithm handles only
// the ->* shape).
package baseline

import (
	"gpml/internal/graph"
)

// EnumerateWalks lists all directed walks from src to dst using edges with
// the given label (any when empty), of length 1..maxLen. It is the naive
// baseline: exponential in maxLen on cyclic graphs.
func EnumerateWalks(g *graph.Graph, src, dst graph.NodeID, label string, maxLen int) []graph.Path {
	var out []graph.Path
	var walk func(p graph.Path)
	walk = func(p graph.Path) {
		if p.Len() >= 1 && p.Last() == dst {
			out = append(out, p)
		}
		if p.Len() >= maxLen {
			return
		}
		g.Incident(p.Last(), func(e *graph.Edge) bool {
			if e.Direction != graph.Directed || e.Source != p.Last() {
				return true
			}
			if label != "" && !e.HasLabel(label) {
				return true
			}
			walk(p.Append(e.ID, e.Target))
			return true
		})
	}
	walk(graph.SingleNode(src))
	return out
}

// EnumerateTrails lists all directed trails (no repeated edges) from src
// to dst over the labelled edges — the restrictor-pruned baseline.
func EnumerateTrails(g *graph.Graph, src, dst graph.NodeID, label string) []graph.Path {
	var out []graph.Path
	used := map[graph.EdgeID]bool{}
	var walk func(p graph.Path)
	walk = func(p graph.Path) {
		if p.Len() >= 1 && p.Last() == dst {
			out = append(out, p)
		}
		g.Incident(p.Last(), func(e *graph.Edge) bool {
			if e.Direction != graph.Directed || e.Source != p.Last() || used[e.ID] {
				return true
			}
			if label != "" && !e.HasLabel(label) {
				return true
			}
			used[e.ID] = true
			walk(p.Append(e.ID, e.Target))
			used[e.ID] = false
			return true
		})
	}
	walk(graph.SingleNode(src))
	return out
}

// ShortestPath returns one shortest directed path from src to dst over the
// labelled edges via breadth-first search, and whether one exists — the
// classic single-pair algorithm corresponding to ANY SHORTEST with ->*.
func ShortestPath(g *graph.Graph, src, dst graph.NodeID, label string) (graph.Path, bool) {
	if src == dst {
		return graph.SingleNode(src), true
	}
	prev := map[graph.NodeID]hop{}
	visited := map[graph.NodeID]bool{src: true}
	frontier := []graph.NodeID{src}
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, u := range frontier {
			found := false
			g.Incident(u, func(e *graph.Edge) bool {
				if e.Direction != graph.Directed || e.Source != u {
					return true
				}
				if label != "" && !e.HasLabel(label) {
					return true
				}
				if visited[e.Target] {
					return true
				}
				visited[e.Target] = true
				prev[e.Target] = hop{edge: e.ID, from: u}
				if e.Target == dst {
					found = true
					return false
				}
				next = append(next, e.Target)
				return true
			})
			if found {
				return reconstruct(src, dst, prev), true
			}
		}
		frontier = next
	}
	return graph.Path{}, false
}

func reconstruct(src, dst graph.NodeID, prev map[graph.NodeID]hop) graph.Path {
	var revNodes []graph.NodeID
	var revEdges []graph.EdgeID
	at := dst
	for at != src {
		h := prev[at]
		revNodes = append(revNodes, at)
		revEdges = append(revEdges, h.edge)
		at = h.from
	}
	nodes := make([]graph.NodeID, 0, len(revNodes)+1)
	nodes = append(nodes, src)
	for i := len(revNodes) - 1; i >= 0; i-- {
		nodes = append(nodes, revNodes[i])
	}
	edges := make([]graph.EdgeID, len(revEdges))
	for i := range revEdges {
		edges[i] = revEdges[len(revEdges)-1-i]
	}
	return graph.Path{Nodes: nodes, Edges: edges}
}

// hop is shared by ShortestPath and AllShortestPaths.
type hop struct {
	edge graph.EdgeID
	from graph.NodeID
}

// AllShortestPaths returns every shortest directed path from src to dst
// over the labelled edges (BFS DAG enumeration) — the ALL SHORTEST
// baseline for the ->* shape.
func AllShortestPaths(g *graph.Graph, src, dst graph.NodeID, label string) []graph.Path {
	if src == dst {
		return []graph.Path{graph.SingleNode(src)}
	}
	dist := map[graph.NodeID]int{src: 0}
	preds := map[graph.NodeID][]hop{}
	frontier := []graph.NodeID{src}
	d := 0
	found := false
	for len(frontier) > 0 && !found {
		var next []graph.NodeID
		for _, u := range frontier {
			g.Incident(u, func(e *graph.Edge) bool {
				if e.Direction != graph.Directed || e.Source != u {
					return true
				}
				if label != "" && !e.HasLabel(label) {
					return true
				}
				v := e.Target
				if dv, seen := dist[v]; !seen {
					dist[v] = d + 1
					preds[v] = []hop{{edge: e.ID, from: u}}
					next = append(next, v)
				} else if dv == d+1 {
					preds[v] = append(preds[v], hop{edge: e.ID, from: u})
				}
				return true
			})
		}
		if dist[dst] == d+1 && len(preds[dst]) > 0 {
			found = true
		}
		frontier = next
		d++
	}
	if !found {
		return nil
	}
	// Enumerate the BFS DAG backwards from dst.
	var out []graph.Path
	var build func(at graph.NodeID, suffixNodes []graph.NodeID, suffixEdges []graph.EdgeID)
	build = func(at graph.NodeID, suffixNodes []graph.NodeID, suffixEdges []graph.EdgeID) {
		if at == src {
			nodes := make([]graph.NodeID, 0, len(suffixNodes)+1)
			nodes = append(nodes, src)
			for i := len(suffixNodes) - 1; i >= 0; i-- {
				nodes = append(nodes, suffixNodes[i])
			}
			edges := make([]graph.EdgeID, len(suffixEdges))
			for i := range suffixEdges {
				edges[i] = suffixEdges[len(suffixEdges)-1-i]
			}
			out = append(out, graph.Path{Nodes: nodes, Edges: edges})
			return
		}
		for _, h := range preds[at] {
			// Copy the suffixes: sibling predecessors must not share
			// backing arrays.
			sn := append(append([]graph.NodeID(nil), suffixNodes...), at)
			se := append(append([]graph.EdgeID(nil), suffixEdges...), h.edge)
			build(h.from, sn, se)
		}
	}
	build(dst, nil, nil)
	return out
}
