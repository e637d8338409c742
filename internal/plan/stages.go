package plan

import "gpml/internal/ast"

// Stage describes one operator of a pattern's evaluation pipeline for the
// streaming executor: whether it streams rows through (pull-based, no
// buffering beyond the row in flight) or blocks (must buffer input before
// emitting), and why. Surfaced by Explain so a query author can see where
// first-row latency and memory go.
type Stage struct {
	// Name identifies the §6 pipeline stage.
	Name string
	// Blocking reports that the stage buffers: per-seed for selectors
	// (endpoint partitions never span seeds), globally for the canonical
	// sort (applied only by collect-all evaluation).
	Blocking bool
	// Note explains the classification.
	Note string
}

// Stages returns the pattern's pipeline stages in execution order. The
// classification is exact for the streaming executor: enumeration,
// reduction and deduplication stream (dedup keys embed the path, whose
// first node is the seed, so a per-seed seen-set is an exact dedup);
// selectors buffer one seed's matches (Fig 8 partitions on path
// endpoints, and the first endpoint is the seed); the canonical sort is
// the only globally blocking stage and only collect-all evaluation (Eval)
// applies it — Stream skips it and emits in pipeline order. The dedup
// stage is listed, with its reason, only for a pattern that can produce
// duplicates (DupReason); a duplicate-free pattern has none.
func (pp *PathPlan) Stages() []Stage {
	out := []Stage{
		{Name: "enumerate", Note: "engines emit matches as found"},
		{Name: "reduce", Note: "per-binding"},
	}
	if pp.DupReason != "" {
		out = append(out, Stage{Name: "dedup(" + pp.DupReason + ")", Note: "per-seed seen-set; keys never span seeds"})
	}
	if sel := pp.Pattern.Selector; sel.Kind != ast.NoSelector {
		out = append(out, Stage{
			Name:     "select " + sel.String(),
			Blocking: true,
			Note:     "buffers one seed's matches; endpoint partitions never span seeds",
		})
	}
	out = append(out, Stage{
		Name:     "sort",
		Blocking: true,
		Note:     "canonical (length, key) order; applied by Eval, skipped by Stream",
	})
	return out
}
