package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpml/internal/lexer"
)

// request is one scheduled query: the only thing the server ever receives
// from a workload is Query (with uniqMark replaced) and Params.
type request struct {
	Shape  string            `json:"shape"`
	Query  string            `json:"query"`
	Params map[string]string `json:"params,omitempty"`
	// Unique marks texts carrying uniqMark: every send replaces it with a
	// literal never sent before, so the plan-cache key never repeats.
	Unique bool `json:"unique,omitempty"`
}

// uniqMark stands for the varying literal inside a Unique request's text.
const uniqMark = "@UNIQ@"

// key identifies a request for the oracle: same key, same answer.
func (r request) key() string {
	names := make([]string, 0, len(r.Params))
	for k := range r.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(r.Query)
	for _, k := range names {
		fmt.Fprintf(&b, "\x00%s=%s", k, r.Params[k])
	}
	return b.String()
}

// text is the query as sent: uniq replaces uniqMark on Unique requests.
func (r request) text(uniq string) string {
	if !r.Unique {
		return r.Query
	}
	return strings.Replace(r.Query, uniqMark, uniq, 1)
}

// body is the /query JSON body for one send.
func (r request) body(graphName, uniq string) []byte {
	b, err := json.Marshal(struct {
		Query  string            `json:"query"`
		Graph  string            `json:"graph"`
		Params map[string]string `json:"params,omitempty"`
	}{r.text(uniq), graphName, r.Params})
	if err != nil {
		panic(err) // strings and string maps always marshal
	}
	return b
}

// workload names one traffic mix. schedule draws the cycle every client
// repeats; it must depend only on the graph and rng.
type workload struct {
	name     string
	why      string
	snb      bool // runs on the SNB graph (else Figure 1)
	inProc   bool // served from the bench process (snb_mixed_rw)
	schedule func(d *graphData, root string, rng *rand.Rand) ([]request, error)
}

var workloads = []workload{
	{
		name: "fig1_adhoc",
		why:  "never-repeating paper queries on 14 nodes: lexer, parser, normalize, plan, automaton and the qcache miss/evict path do most of the work",
		schedule: func(d *graphData, root string, rng *rand.Rand) ([]request, error) {
			cases, err := loadFig1Cases(root)
			if err != nil {
				return nil, err
			}
			var reqs []request
			for _, c := range cases {
				reqs = append(reqs, request{Shape: c.name, Query: c.query, Unique: true})
			}
			return shuffled(rng, repeatTo(reqs, 256)), nil
		},
	},
	{
		name: "snb_prepared_short",
		snb:  true,
		why:  "four cached $param texts with small answers: HTTP, body decode, QueryKey, cache hit, binding, join ordering and the label seed scan are the per-request fixed cost",
		schedule: func(d *graphData, _ string, rng *rand.Rand) ([]request, error) {
			return shuffled(rng, shortRequests(d.snb, rng, 64)), nil
		},
	},
	{
		name: "snb_traversal",
		snb:  true,
		why:  "six prepared path shapes on knows (quantified, TRAIL, ANY/ALL SHORTEST, triangle, bind-join): engines, binding reduce/dedup and graph stepping dominate",
		schedule: func(d *graphData, _ string, rng *rand.Rand) ([]request, error) {
			return shuffled(rng, traversalRequests(d.snb, rng, traversalMix)), nil
		},
	},
	{
		name: "snb_stream_rows",
		snb:  true,
		why:  "two prepared shapes returning ~15k and ~35k rows: row materialization, NDJSON encode, per-row flush and chunked HTTP dominate, first-row latency separates from full latency",
		schedule: func(d *graphData, _ string, rng *rand.Rand) ([]request, error) {
			ix := d.snb
			var reqs []request
			// Narrow bands (about ±5% in rows) keep the cycle's work nearly
			// the same whichever parameters the seed draws.
			for _, c := range draw(rng, ix.countryBand(15100, 16700), 3) {
				reqs = append(reqs, request{Shape: "colikers", Params: map[string]string{"country": c},
					Query: `MATCH (a:Person WHERE a.country=$country)-[:likes]->(m:Post)<-[:likes]-(b:Person)`})
			}
			for _, n := range draw(rng, ix.band(ix.w2, 30000, 34000), 1) {
				reqs = append(reqs, request{Shape: "hub_neighbourhood", Params: map[string]string{"name": n},
					Query: `MATCH (a:Person WHERE a.firstName=$name)-[k:knows]-{1,2}(b:Person)`})
			}
			return shuffled(rng, reqs), nil
		},
	},
	{
		name:   "snb_mixed_rw",
		snb:    true,
		inProc: true,
		why:    "short and traversal reads beside an open-loop durable writer: Apply, WAL fsync, compaction and checkpoints compete with the read path for the same cores",
		schedule: func(d *graphData, _ string, rng *rand.Rand) ([]request, error) {
			// 64 short reads, then four quantified and two triangle ones:
			// p95 of the 70 falls inside the quantified mode.
			reqs := append(shortRequests(d.snb, rng, 16),
				traversalRequests(d.snb, rng, shapeCounts{quantified: 4, triangle: 2})...)
			return shuffled(rng, reqs), nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shortRequests draws per parameters for each of the four short texts.
// Pools are bands of the structural proxies, so answers stay small
// (≤ ~600 rows) and per-request cost varies little between seeds.
func shortRequests(ix *snbIndex, rng *rand.Rand, per int) []request {
	var reqs []request
	byName := func(shape, query string, pool []string) {
		for _, n := range draw(rng, pool, per) {
			reqs = append(reqs, request{Shape: shape, Query: query, Params: map[string]string{"name": n}})
		}
	}
	byName("friends_1hop", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)`,
		ix.band(ix.w1, 8, 60))
	byName("friends_2hop", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)-[:knows]-(c:Person)`,
		ix.band(ix.w2, 300, 500))
	byName("likes_creator", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)-[:hasCreator]->(c:Person)`,
		ix.band(ix.likes, 4, 8))
	for _, c := range draw(rng, ix.countries, per) {
		reqs = append(reqs, request{Shape: "country_likes", Params: map[string]string{"country": c},
			Query: `MATCH (a:Person WHERE a.country=$country)-[l:likes]->(m:Post)`})
	}
	return reqs
}

// shapeCounts says how many requests of each path shape a cycle holds.
type shapeCounts struct {
	quantified, trail, anyShortest, allShortest, triangle, bindJoin int
}

// traversalMix is snb_traversal's cycle. The counts are uneven for the
// percentiles' sake: shape costs form separate modes, and a median that
// falls between two modes jumps from run to run. With 7 cheaper and 5
// dearer requests around ten ALL SHORTEST ones, the medians of both
// latency and first-row latency (which equals latency for the two
// selector shapes) fall inside the ALL SHORTEST mode, and p95 inside ANY
// SHORTEST's.
var traversalMix = shapeCounts{quantified: 3, trail: 2, anyShortest: 3, allShortest: 10, triangle: 2, bindJoin: 2}

// traversalRequests draws the parameter sets of the six path shapes.
// Start persons come from narrow bands of the walk counts, so a request's
// cost and answer size barely depend on the seed: 10–200 ms, under 2,500
// rows. Nearly all rows come from the quantified shape, whose postfilter
// drops one country of fifty.
func traversalRequests(ix *snbIndex, rng *rand.Rand, n shapeCounts) []request {
	starts := draw(rng, ix.band(ix.w2, 3000, 4500), n.anyShortest+n.allShortest+n.triangle+n.bindJoin)
	wide := draw(rng, ix.band(ix.w2, 2000, 2400), n.quantified)
	ends := draw(rng, ix.band(ix.w1, 3, 6), n.anyShortest+n.allShortest)
	countries := draw(rng, ix.countries, n.quantified+n.trail+n.bindJoin)
	trails := draw(rng, ix.band(ix.w3, 6000, 10000), n.trail)
	next := func(pool *[]string) string {
		v := (*pool)[0]
		*pool = (*pool)[1:]
		return v
	}
	var reqs []request
	add := func(n int, shape, query string, params func() map[string]string) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, request{Shape: shape, Query: query, Params: params()})
		}
	}
	add(n.quantified, "quantified_postfilter", `MATCH (a:Person WHERE a.firstName=$name)-[k:knows]-{1,2}(b:Person) WHERE b.country<>$country`,
		func() map[string]string { return map[string]string{"name": next(&wide), "country": next(&countries)} })
	add(n.trail, "trail_1_3", `MATCH TRAIL (a:Person WHERE a.firstName=$name)-[k:knows]-{1,3}(b:Person WHERE b.country=$country)`,
		func() map[string]string { return map[string]string{"name": next(&trails), "country": next(&countries)} })
	add(n.anyShortest, "any_shortest", `MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`,
		func() map[string]string { return map[string]string{"src": next(&starts), "dst": next(&ends)} })
	add(n.allShortest, "all_shortest", `MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`,
		func() map[string]string { return map[string]string{"src": next(&starts), "dst": next(&ends)} })
	add(n.triangle, "triangle", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`,
		func() map[string]string { return map[string]string{"name": next(&starts)} })
	add(n.bindJoin, "colike_bindjoin", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)<-[:likes]-(b:Person WHERE b.country=$country), TRAIL (a)-[:knows]-{1,2}(b)`,
		func() map[string]string { return map[string]string{"name": next(&starts), "country": next(&countries)} })
	return reqs
}

// draw picks n items from pool without replacement (wrapping around
// when the pool is smaller than n). An empty pool is a programming error:
// pools are functions of the fixed graph.
func draw(rng *rand.Rand, pool []string, n int) []string {
	if n == 0 {
		return nil
	}
	if len(pool) == 0 {
		panic("bench: empty parameter pool")
	}
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := range out {
		out[i] = pool[perm[i%len(perm)]]
	}
	return out
}

// repeatTo cycles reqs until there are n of them.
func repeatTo(reqs []request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = reqs[i%len(reqs)]
	}
	return out
}

func shuffled(rng *rand.Rand, reqs []request) []request {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// fig1Case is one `graph: fig1` case of testdata/conformance.
type fig1Case struct {
	name       string
	query      string // with the uniqMark predicate spliced in
	goldenRows int
}

// loadFig1Cases reads the conformance corpus under root and returns its
// Figure 1 cases in file-name order, each with an always-true predicate
// on a varying literal ('<uniq>' <> ”) added to the final WHERE, which
// leaves the golden answer unchanged.
func loadFig1Cases(root string) ([]fig1Case, error) {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "conformance", "*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var cases []fig1Case
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c, ok, err := parseFig1Case(string(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if ok {
			c.name = strings.TrimSuffix(filepath.Base(f), ".txt")
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("no `graph: fig1` cases under %s/testdata/conformance", root)
	}
	return cases, nil
}

// parseFig1Case parses one corpus file (format: conformance_test.go);
// ok is false for cases on other graphs.
func parseFig1Case(raw string) (c fig1Case, ok bool, err error) {
	lines := strings.Split(raw, "\n")
	graphName := "fig1"
	i := 0
	for ; i < len(lines); i++ {
		t := strings.TrimSpace(lines[i])
		if strings.HasPrefix(t, "graph:") {
			graphName = strings.TrimSpace(strings.TrimPrefix(t, "graph:"))
		}
		if t == "query:" {
			break
		}
	}
	if i == len(lines) {
		return c, false, fmt.Errorf("missing query: section")
	}
	if graphName != "fig1" {
		return c, false, nil
	}
	var query, result []string
	for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "-- result --"; i++ {
		query = append(query, lines[i])
	}
	if i == len(lines) {
		return c, false, fmt.Errorf("missing -- result -- section")
	}
	for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "-- table --"; i++ {
		if strings.TrimSpace(lines[i]) != "" {
			result = append(result, lines[i])
		}
	}
	// The golden table is a header line, a rule line, then one line per row.
	if len(result) < 2 {
		return c, false, fmt.Errorf("golden result has no table header")
	}
	c.goldenRows = len(result) - 2
	c.query, err = addUniqPredicate(strings.TrimSpace(strings.Join(query, "\n")))
	return c, err == nil, err
}

// addUniqPredicate conjoins `'@UNIQ@' <> ”` to the statement's final
// WHERE (the one outside every parenthesis and bracket), adding one when
// the statement has none.
func addUniqPredicate(query string) (string, error) {
	toks, err := lexer.Tokenize(query)
	if err != nil {
		return "", err
	}
	pred := "'" + uniqMark + "' <> ''"
	depth := 0
	for _, t := range toks {
		switch t.Kind {
		case lexer.LPAREN, lexer.LBRACKET:
			depth++
		case lexer.RPAREN, lexer.RBRACKET:
			depth--
		case lexer.KEYWORD:
			if depth == 0 && t.Text == "WHERE" {
				off := tokenOffset(query, t.Line, t.Col) + len("WHERE")
				return query[:off] + " (" + query[off:] + ") AND " + pred, nil
			}
		}
	}
	return query + " WHERE " + pred, nil
}

// tokenOffset converts a 1-based line/column (columns count bytes) to a
// byte offset into src.
func tokenOffset(src string, line, col int) int {
	off := 0
	for l := 1; l < line; l++ {
		off += strings.IndexByte(src[off:], '\n') + 1
	}
	return off + col - 1
}
