package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/graph"
)

// The SNB graph is fixed (it is the system's data, not the workload's
// input): -seed varies only the request schedule drawn over it.
const (
	snbScale = 0.3
	snbSeed  = 42
)

// graphData is the graph a workload runs on, held in-process for the
// oracle, the parameter pools and the traced pass.
type graphData struct {
	name     string // catalog name gpmld serves it under
	g        *gpml.Graph
	store    *gpml.CSR
	jsonPath string // "" = gpmld's built-in Figure 1 graph
	snb      *snbIndex
}

// loadFig1 is the paper's Figure 1 graph, which gpmld serves by default.
func loadFig1() *graphData {
	g := gpml.Fig1()
	return &graphData{name: "fig1", g: g, store: gpml.Snapshot(g)}
}

// newSNB generates the SNB graph, its snapshot and the pool index.
func newSNB() *graphData {
	g := dataset.SNB(dataset.SNBConfig{ScaleFactor: snbScale, Seed: snbSeed})
	d := &graphData{name: "main", g: g, store: gpml.Snapshot(g)}
	d.snb = indexSNB(d.store)
	return d
}

// loadSNB is newSNB plus the graph's JSON form on disk under outDir for
// gpmld's -graph. The file is keyed by scale and seed and reused by every
// later run in the checkout, so generation and the JSON write stay out of
// setup_s.
func loadSNB(outDir string) (*graphData, error) {
	d := newSNB()
	d.jsonPath = filepath.Join(outDir, fmt.Sprintf("snb-sf%g-seed%d.json", snbScale, snbSeed))
	if _, err := os.Stat(d.jsonPath); err != nil {
		if err := writeGraphJSON(d.g, d.jsonPath); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// writeGraphJSON writes atomically (temp file + rename) so an interrupted
// run never leaves a truncated graph for the next one to load.
func writeGraphJSON(g *gpml.Graph, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "graph-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := g.WriteJSON(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// snbIndex holds, per person, the cheap structural cost proxies the
// parameter pools are cut from: walk counts over knows at one, two and
// three hops, the number of posts liked, and per country the size of the
// co-likers answer. They are computed by plain adjacency scans,
// independent of the query engine.
type snbIndex struct {
	persons   []int // dense node indices, insertion order
	name      map[int]string
	w1        map[int]int // knows degree
	w2        map[int]int // 2-hop knows walks
	w3        map[int]int // 3-hop knows walks
	likes     map[int]int
	countries []string       // distinct country values, first-seen order
	colikers  map[string]int // per country: rows of the co-likers shape
}

func indexSNB(c *gpml.CSR) *snbIndex {
	ix := &snbIndex{name: map[int]string{}, w1: map[int]int{}, w2: map[int]int{}, w3: map[int]int{}, likes: map[int]int{}, colikers: map[string]int{}}
	c.NodesWithLabelIdx("Person", func(i int) bool {
		ix.persons = append(ix.persons, i)
		return true
	})
	likes := func(p int, f func(post int)) {
		c.Steps(p, func(e, other int, k graph.StepKind) bool {
			if k == graph.StepOut && c.EdgeByIndex(e).HasLabel("likes") {
				f(other)
			}
			return true
		})
	}
	likers := map[int]int{} // per post
	knows := func(p int, f func(other int)) {
		c.Steps(p, func(e, other int, k graph.StepKind) bool {
			if c.EdgeByIndex(e).HasLabel("knows") {
				f(other)
			}
			return true
		})
	}
	for _, p := range ix.persons {
		ix.name[p] = propString(c.NodeByIndex(p), "firstName")
		knows(p, func(int) { ix.w1[p]++ })
		likes(p, func(post int) {
			ix.likes[p]++
			likers[post]++
		})
	}
	for _, p := range ix.persons {
		cn := propString(c.NodeByIndex(p), "country")
		if _, ok := ix.colikers[cn]; !ok {
			ix.countries = append(ix.countries, cn)
		}
		// (a in cn)-likes->(m)<-likes-(b): one row per liker of each post liked.
		likes(p, func(post int) { ix.colikers[cn] += likers[post] })
	}
	for _, p := range ix.persons {
		knows(p, func(o int) { ix.w2[p] += ix.w1[o] })
	}
	for _, p := range ix.persons {
		knows(p, func(o int) { ix.w3[p] += ix.w2[o] })
	}
	return ix
}

// propString reads a string property ("" when absent or not a string).
func propString(n *graph.Node, key string) string {
	s, _ := n.Prop(key).AsString()
	return s
}

// countryBand lists the countries whose co-likers answer has between lo
// and hi rows, in first-seen order.
func (ix *snbIndex) countryBand(lo, hi int) []string {
	var out []string
	for _, c := range ix.countries {
		if v := ix.colikers[c]; v >= lo && v <= hi {
			out = append(out, c)
		}
	}
	return out
}

// band lists the firstName of every person whose proxy lies in [lo, hi],
// in insertion order, so a pool depends only on the graph.
func (ix *snbIndex) band(proxy map[int]int, lo, hi int) []string {
	var out []string
	for _, p := range ix.persons {
		if v := proxy[p]; v >= lo && v <= hi {
			out = append(out, ix.name[p])
		}
	}
	return out
}
