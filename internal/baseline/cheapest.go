package baseline

import (
	"container/heap"

	"gpml/internal/graph"
)

// CheapestPath implements the "cheapest path search, by adding weights to
// edges" language opportunity of §7.1 as a reference algorithm: Dijkstra
// over directed edges carrying a non-negative numeric weight property.
// Edges lacking the property (or with non-numeric values) are skipped. It
// returns a cheapest path, its total cost, and whether dst is reachable.
func CheapestPath(g *graph.Graph, src, dst graph.NodeID, label, weightProp string) (graph.Path, float64, bool) {
	if src == dst {
		return graph.SingleNode(src), 0, true
	}
	dist := map[graph.NodeID]float64{src: 0}
	prev := map[graph.NodeID]hop{}
	done := map[graph.NodeID]bool{}
	pq := &nodeHeap{{id: src, cost: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeCost)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == dst {
			return reconstruct(src, dst, prev), cur.cost, true
		}
		g.Incident(cur.id, func(e *graph.Edge) bool {
			if e.Direction != graph.Directed || e.Source != cur.id {
				return true
			}
			if label != "" && !e.HasLabel(label) {
				return true
			}
			w, ok := e.Prop(weightProp).AsFloat()
			if !ok || w < 0 {
				return true
			}
			next := cur.cost + w
			if d, seen := dist[e.Target]; !seen || next < d {
				dist[e.Target] = next
				prev[e.Target] = hop{edge: e.ID, from: cur.id}
				heap.Push(pq, nodeCost{id: e.Target, cost: next})
			}
			return true
		})
	}
	return graph.Path{}, 0, false
}

type nodeCost struct {
	id   graph.NodeID
	cost float64
}

type nodeHeap []nodeCost

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeCost)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
