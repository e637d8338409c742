package pgq

import (
	"fmt"
	"sort"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/core"
	"gpml/internal/eval"
	"gpml/internal/graph"
	"gpml/internal/value"
)

// Column is one projection of the GRAPH_TABLE COLUMNS clause.
type Column struct {
	Expr ast.Expr
	As   string
}

// ParseColumns parses a COLUMNS clause body: "expr AS name, expr AS name".
// The AS name is optional when the expression is a plain property access
// (x.owner projects as "owner").
func ParseColumns(src string) ([]Column, error) {
	parts, err := splitTopLevel(src)
	if err != nil {
		return nil, err
	}
	var out []Column
	for _, part := range parts {
		exprSrc, as, err := splitAs(part)
		if err != nil {
			return nil, err
		}
		e, err := parseExpr(exprSrc)
		if err != nil {
			return nil, err
		}
		if as == "" {
			if pa, ok := e.(*ast.PropAccess); ok {
				as = pa.Prop
			} else {
				as = strings.TrimSpace(exprSrc)
			}
		}
		out = append(out, Column{Expr: e, As: as})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pgq: empty COLUMNS clause")
	}
	return out, nil
}

// splitTopLevel splits on commas not nested in parentheses or brackets.
func splitTopLevel(src string) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i, r := range src {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("pgq: unbalanced parentheses in COLUMNS clause")
			}
		case ',':
			if depth == 0 {
				parts = append(parts, src[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("pgq: unbalanced parentheses in COLUMNS clause")
	}
	parts = append(parts, src[start:])
	return parts, nil
}

// splitAs separates "expr AS alias" case-insensitively at top level.
func splitAs(part string) (string, string, error) {
	upper := strings.ToUpper(part)
	idx := -1
	depth := 0
	for i := 0; i < len(upper); i++ {
		switch upper[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
		if depth == 0 && strings.HasPrefix(upper[i:], " AS ") {
			idx = i
		}
	}
	if idx < 0 {
		return strings.TrimSpace(part), "", nil
	}
	expr := strings.TrimSpace(part[:idx])
	alias := strings.TrimSpace(part[idx+4:])
	if alias == "" {
		return "", "", fmt.Errorf("pgq: empty alias in %q", part)
	}
	return expr, alias, nil
}

// GraphTable is the SQL/PGQ GRAPH_TABLE operator: it matches a GPML
// pattern on the graph and projects each match to a table row (Figure 9's
// SQL/PGQ output path).
func GraphTable(g graph.Store, match string, columns []Column, cfg eval.Config) (*Table, error) {
	q, err := core.Compile(match, core.Options{GQL: false})
	if err != nil {
		return nil, err
	}
	return GraphTableQuery(g, q, columns, cfg)
}

// GraphTableQuery runs GRAPH_TABLE with a precompiled query.
func GraphTableQuery(g graph.Store, q *core.Query, columns []Column, cfg eval.Config) (*Table, error) {
	for _, c := range columns {
		for name := range ast.ExprVars(c.Expr) {
			if q.Plan.Var(name) == nil {
				return nil, fmt.Errorf("pgq: COLUMNS references undeclared variable %q", name)
			}
		}
	}
	res, err := eval.EvalPlan(g, q.Plan, cfg)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.As
	}
	t := NewTable("", names...)
	for _, row := range res.Rows {
		r := eval.RowResolver(row)
		out := make([]value.Value, len(columns))
		for i, c := range columns {
			v, err := eval.EvalValue(c.Expr, r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if err := t.Append(out...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TabularName builds the relation name for a label combination, as in
// Figure 2 ("CityCountry" for the City∧Country node c2).
func TabularName(labels []string) string {
	if len(labels) == 0 {
		return "Unlabeled"
	}
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	return strings.Join(sorted, "")
}
