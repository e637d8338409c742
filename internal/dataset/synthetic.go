package dataset

import (
	"fmt"
	"math/rand"

	"gpml/internal/graph"
)

// The synthetic generators are deterministic (seeded) so benchmarks and
// tests are reproducible. They model the banking workload the paper's
// introduction motivates: accounts, transfers, locations, phones.

// Chain builds a directed Transfer chain a0→a1→…→a(n-1): the best case for
// path search (no branching).
func Chain(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.Node(nodeID(i), []string{"Account"}, "owner", owner(i), "isBlocked", blockedFlag(i, n))
	}
	for i := 0; i+1 < n; i++ {
		b.Edge(edgeID(i), nodeID(i), nodeID(i+1), []string{"Transfer"},
			"amount", int64(1_000_000*(2+i%9)), "date", date(i))
	}
	return b.MustBuild()
}

// CyclicJoins holds the cyclic join shapes of the conformance corpus: a
// directed 4-cycle (Hop), a diamond (Road), and a triangle with a pendant
// edge (Wire), each shape on its own edge label so the cases stay
// independent. The parallel edges (h5, w5) make the per-pattern edge cross
// product non-trivial.
func CyclicJoins() *graph.Graph {
	b := graph.NewBuilder()
	for _, id := range []string{"c1", "c2", "c3", "c4", "d1", "d2", "d3", "d4", "t1", "t2", "t3", "t4"} {
		b.Node(id, []string{"V"}, "name", id)
	}
	for _, e := range [][4]string{
		{"h1", "c1", "c2", "Hop"}, {"h2", "c2", "c3", "Hop"}, {"h3", "c3", "c4", "Hop"}, {"h4", "c4", "c1", "Hop"}, {"h5", "c1", "c2", "Hop"},
		{"r1", "d1", "d2", "Road"}, {"r2", "d1", "d3", "Road"}, {"r3", "d2", "d4", "Road"}, {"r4", "d3", "d4", "Road"},
		{"w1", "t1", "t2", "Wire"}, {"w2", "t2", "t3", "Wire"}, {"w3", "t3", "t1", "Wire"}, {"w4", "t3", "t4", "Wire"}, {"w5", "t1", "t2", "Wire"},
	} {
		b.Edge(e[0], e[1], e[2], []string{e[3]})
	}
	return b.MustBuild()
}

// Cycle builds a directed Transfer ring of n accounts: the adversarial
// case for unrestricted path enumeration (infinitely many walks), used to
// demonstrate restrictor/selector termination.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.Node(nodeID(i), []string{"Account"}, "owner", owner(i), "isBlocked", blockedFlag(i, n))
	}
	for i := 0; i < n; i++ {
		b.Edge(edgeID(i), nodeID(i), nodeID((i+1)%n), []string{"Transfer"},
			"amount", int64(1_000_000*(2+i%9)), "date", date(i))
	}
	return b.MustBuild()
}

// Grid builds an r×c directed grid (right and down Transfer edges): many
// shortest paths between corners, exercising ALL SHORTEST.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder()
	id := func(r, c int) string { return fmt.Sprintf("n%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.Node(id(r, c), []string{"Account"}, "owner", fmt.Sprintf("u%d_%d", r, c), "isBlocked", "no")
		}
	}
	e := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.Edge(fmt.Sprintf("e%d", e), id(r, c), id(r, c+1), []string{"Transfer"}, "amount", int64(2_000_000))
				e++
			}
			if r+1 < rows {
				b.Edge(fmt.Sprintf("e%d", e), id(r, c), id(r+1, c), []string{"Transfer"}, "amount", int64(2_000_000))
				e++
			}
		}
	}
	return b.MustBuild()
}

// RandomConfig parameterizes the random banking graph.
type RandomConfig struct {
	Accounts  int
	AvgDegree float64 // expected outgoing Transfer edges per account
	Cities    int
	Phones    int
	// BlockedFraction of accounts get isBlocked='yes'.
	BlockedFraction float64
	Seed            int64
	// UndirectedPhones adds ~1 hasPhone edge per account when Phones > 0.
	UndirectedPhones bool
	// Edges, when positive, sets the exact Transfer edge count instead of
	// Accounts*AvgDegree.
	Edges int
	// DistinctPairs rejects duplicate (src, dst) Transfer pairs by
	// rejection sampling, producing a simple directed graph (self-loops
	// still allowed, at most one per account). Such a graph holds at most
	// Accounts*Accounts Transfer edges; configs asking for more are
	// impossible and Validate rejects them — without the check, the
	// sampler would loop forever hunting for a free pair.
	DistinctPairs bool
}

// Validate rejects impossible configurations with a clear error rather
// than letting Random spin: a DistinctPairs graph on N accounts has only
// N*N ordered (src, dst) pairs, so requesting more edges than that can
// never terminate.
func (cfg RandomConfig) Validate() error {
	edges := cfg.Edges
	if edges <= 0 {
		edges = int(float64(cfg.Accounts) * cfg.AvgDegree)
	}
	if cfg.DistinctPairs && edges > cfg.Accounts*cfg.Accounts {
		return fmt.Errorf("dataset: RandomConfig wants %d distinct Transfer edges but %d accounts admit only %d ordered pairs",
			edges, cfg.Accounts, cfg.Accounts*cfg.Accounts)
	}
	return nil
}

// Random builds a seeded random banking graph: Transfer multigraph over
// accounts with the configured average out-degree, isLocatedIn edges to
// cities, and optional undirected hasPhone edges — the fraud-detection
// shape of the paper's running scenario.
func Random(cfg RandomConfig) *graph.Graph {
	if err := cfg.Validate(); err != nil {
		panic(err) // programming error, like Builder.MustBuild on a bad graph
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	for i := 0; i < cfg.Accounts; i++ {
		blocked := "no"
		if rng.Float64() < cfg.BlockedFraction {
			blocked = "yes"
		}
		b.Node(nodeID(i), []string{"Account"}, "owner", owner(i), "isBlocked", blocked)
	}
	for c := 0; c < cfg.Cities; c++ {
		labels := []string{"City"}
		if c%3 == 0 {
			labels = []string{"City", "Country"}
		}
		b.Node(fmt.Sprintf("c%d", c), labels, "name", fmt.Sprintf("city%d", c))
	}
	for p := 0; p < cfg.Phones; p++ {
		b.Node(fmt.Sprintf("p%d", p), []string{"Phone"}, "number", fmt.Sprintf("%03d", p), "isBlocked", "no")
	}
	edges := cfg.Edges
	if edges <= 0 {
		edges = int(float64(cfg.Accounts) * cfg.AvgDegree)
	}
	var used map[[2]int]bool
	if cfg.DistinctPairs {
		used = make(map[[2]int]bool, edges)
	}
	for e := 0; e < edges; e++ {
		src := rng.Intn(cfg.Accounts)
		dst := rng.Intn(cfg.Accounts)
		if cfg.DistinctPairs {
			// Rejection sampling over the free pairs; Validate bounds the
			// request by Accounts*Accounts, so a free pair always exists.
			for used[[2]int{src, dst}] {
				src = rng.Intn(cfg.Accounts)
				dst = rng.Intn(cfg.Accounts)
			}
			used[[2]int{src, dst}] = true
		}
		b.Edge(fmt.Sprintf("t%d", e), nodeID(src), nodeID(dst), []string{"Transfer"},
			"amount", int64(1_000_000+rng.Intn(15_000_000)), "date", date(e))
	}
	if cfg.Cities > 0 {
		for i := 0; i < cfg.Accounts; i++ {
			b.Edge(fmt.Sprintf("li%d", i), nodeID(i), fmt.Sprintf("c%d", rng.Intn(cfg.Cities)),
				[]string{"isLocatedIn"})
		}
	}
	if cfg.UndirectedPhones && cfg.Phones > 0 {
		for i := 0; i < cfg.Accounts; i++ {
			b.UndirectedEdge(fmt.Sprintf("hp%d", i), nodeID(i), fmt.Sprintf("p%d", rng.Intn(cfg.Phones)),
				[]string{"hasPhone"})
		}
	}
	return b.MustBuild()
}

// LaunderingRings builds rings of accounts with ring-internal transfer
// cycles plus random cross-ring transfers; the layered money-laundering
// workload used by examples/social.
func LaunderingRings(rings, ringSize, crossEdges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	total := rings * ringSize
	for i := 0; i < total; i++ {
		blocked := "no"
		if i%ringSize == 0 {
			blocked = "yes" // one flagged account per ring
		}
		b.Node(nodeID(i), []string{"Account"}, "owner", owner(i), "isBlocked", blocked, "ring", int64(i/ringSize))
	}
	e := 0
	for r := 0; r < rings; r++ {
		base := r * ringSize
		for k := 0; k < ringSize; k++ {
			b.Edge(fmt.Sprintf("t%d", e), nodeID(base+k), nodeID(base+(k+1)%ringSize),
				[]string{"Transfer"}, "amount", int64(2_000_000+rng.Intn(9_000_000)))
			e++
		}
	}
	for k := 0; k < crossEdges; k++ {
		src := rng.Intn(total)
		dst := rng.Intn(total)
		b.Edge(fmt.Sprintf("t%d", e), nodeID(src), nodeID(dst),
			[]string{"Transfer"}, "amount", int64(6_000_000+rng.Intn(9_000_000)))
		e++
	}
	return b.MustBuild()
}

func nodeID(i int) string { return fmt.Sprintf("a%d", i) }
func edgeID(i int) string { return fmt.Sprintf("t%d", i) }
func owner(i int) string  { return fmt.Sprintf("owner%d", i) }
func date(i int) string   { return fmt.Sprintf("%d/%d/2020", 1+i%28, 1+i%12) }

func blockedFlag(i, n int) string {
	if n > 2 && i == n/2 {
		return "yes"
	}
	return "no"
}
