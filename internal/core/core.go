// Package core runs the front half of the paper's execution model (§6):
// parse → normalize → static analysis/compile. The compiled Plan is
// evaluated by package eval (StreamPlan, EvalPlan): lazy expansion,
// rigid-pattern matching, reduction, deduplication, selectors, join and
// postfilter.
package core

import (
	"gpml/internal/ast"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// Query is a compiled GPML statement, reusable across graphs.
type Query struct {
	Source     string
	Parsed     *ast.MatchStmt
	Normalized *ast.MatchStmt
	Plan       *plan.Plan
}

// Options configures compilation.
type Options struct {
	// GQL enables GQL-host behaviour (element-reference equality with =);
	// the default is the portable common core, which matches SQL/PGQ's
	// restrictions (§4.7).
	GQL bool
}

// Compile parses, normalizes and plans a GPML statement.
func Compile(src string, opts Options) (*Query, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		return nil, err
	}
	p, err := plan.Analyze(norm, plan.Options{AllowElementEquality: opts.GQL})
	if err != nil {
		return nil, err
	}
	return &Query{Source: src, Parsed: stmt, Normalized: norm, Plan: p}, nil
}

// Columns returns the output column order (named variables by first
// appearance, including path variables).
func (q *Query) Columns() []string { return q.Plan.Columns }
