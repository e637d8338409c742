// Route planning: the paper's §7.2 research question made concrete —
// "What is the most scenic route to the airport in at most 2 hours?", i.e.
// optimizing one objective (scenery) under a bound on another (time).
// Demonstrates two tools working together: the engine's selectors (fewest
// hops), and bounded GPML enumeration with group aggregation, which gives
// both the cheapest route by one weight and the constrained optimum the
// paper says is open for general patterns.
package main

import (
	"fmt"
	"log"
	"sort"

	"gpml"
)

func main() {
	g := roadNetwork()
	fmt.Println("road network:", g.Stats())

	// 1. Fewest road segments, via the engine's ANY SHORTEST selector.
	res, err := gpml.Match(g, `
		MATCH ANY SHORTEST p = (a WHERE a.name='home')-[r:Road]->+
		      (b WHERE b.name='airport')`)
	if err != nil {
		log.Fatal(err)
	}
	p, _ := res.Rows[0].Get("p")
	fmt.Println("\nfewest segments:", p.Path)

	// 2. Enumerate the routes within 120 minutes with GPML and aggregate
	// both weights per route client-side.
	res, err = gpml.Match(g, `
		MATCH TRAIL p = (a WHERE a.name='home')
		      [()-[r:Road]->()]{1,6}
		      (b WHERE b.name='airport')
		WHERE SUM(r.minutes) <= 120`)
	if err != nil {
		log.Fatal(err)
	}
	type route struct {
		path    string
		scenery int64
		minutes int64
	}
	var routes []route
	for _, row := range res.Rows {
		pb, _ := row.Get("p")
		rg, _ := row.Get("r")
		var scenery, mins int64
		for _, id := range rg.GroupIDs() {
			e := g.Edge(gpml.EdgeID(id))
			s, _ := e.Prop("scenery").AsInt()
			m, _ := e.Prop("minutes").AsInt()
			scenery += s
			mins += m
		}
		routes = append(routes, route{pb.Path.String(), scenery, mins})
	}
	if len(routes) == 0 {
		log.Fatal("airport unreachable within 120 minutes")
	}

	// 3. Fastest route: the least total minutes (the §7.1 cheapest-path
	// language opportunity, answered over the bounded enumeration).
	fastest := routes[0]
	for _, r := range routes[1:] {
		if r.minutes < fastest.minutes || r.minutes == fastest.minutes && r.path < fastest.path {
			fastest = r
		}
	}
	fmt.Printf("fastest route:   %s (%d minutes)\n", fastest.path, fastest.minutes)

	// 4. Most scenic route within 120 minutes: maximize an objective
	// subject to an upper bound on the cost — exactly the §7.2 shape.
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].scenery != routes[j].scenery {
			return routes[i].scenery > routes[j].scenery
		}
		return routes[i].minutes < routes[j].minutes
	})
	fmt.Printf("\n%d routes reach the airport within 120 minutes; the most scenic:\n", len(routes))
	for i, r := range routes {
		if i == 3 {
			break
		}
		fmt.Printf("  scenery %2d, %3d min: %s\n", r.scenery, r.minutes, r.path)
	}
}

// roadNetwork builds a small weighted road graph: a fast highway, a slow
// scenic coastal road, and connecting streets.
func roadNetwork() *gpml.Graph {
	b := gpml.NewBuilder()
	for _, n := range []string{"home", "junction", "hills", "coast", "lighthouse", "suburbs", "airport"} {
		b.Node(n, []string{"Place"}, "name", n)
	}
	road := func(id, from, to string, minutes, scenery int) {
		b.Edge(id, from, to, []string{"Road"}, "minutes", int64(minutes), "scenery", int64(scenery))
	}
	// The highway: fast, dull.
	road("h1", "home", "junction", 15, 1)
	road("h2", "junction", "suburbs", 20, 1)
	road("h3", "suburbs", "airport", 10, 1)
	// The coastal loop: slow, beautiful.
	road("c1", "home", "coast", 35, 9)
	road("c2", "coast", "lighthouse", 30, 10)
	road("c3", "lighthouse", "airport", 40, 8)
	// The hill road: medium.
	road("m1", "junction", "hills", 25, 6)
	road("m2", "hills", "airport", 30, 7)
	// Connectors.
	road("x1", "coast", "junction", 15, 4)
	road("x2", "hills", "suburbs", 15, 3)
	return b.MustBuild()
}
