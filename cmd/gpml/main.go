// Command gpml runs GPML queries against a property graph.
//
// Usage:
//
//	gpml [-graph graph.json] [-gql] [-bindings] [-normalized] [-explain] 'MATCH ...'
//
// Without -graph, the paper's Figure 1 banking graph is used. The query may
// also be piped on stdin. With -bindings, the §6.4-style reduced path
// binding tables are printed instead of the variable table; -normalized
// additionally prints the §6.2 normalized pattern. -explain reports which
// engine (dfs, bfs, or the pattern automaton) evaluates each path pattern
// and why, plus the cost-ordered join plan of multi-pattern statements;
// -csr evaluates on an immutable CSR snapshot and -overlay on an
// epoch-snapshot overlay store (the live-mutation serving configuration).
// -first N streams only the first N rows (LIMIT pushdown: enumeration
// stops once they are produced) and -timeout aborts evaluation after a
// duration via streaming cancellation.
//
// Exit codes distinguish why evaluation ended: 0 success, 1 query or
// graph error (compile errors include a caret diagnostic pointing at the
// offending source column), 2 usage, 3 the -timeout deadline expired
// mid-evaluation, 4 interrupted by SIGINT/SIGTERM, 5 a search limit from
// -max-matches was exhausted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gpml"
	"gpml/internal/graph"
)

// Exit codes: scripts driving gpml can tell a wrong query from a slow
// one without parsing stderr.
const (
	exitOK        = 0
	exitError     = 1 // compile/graph/eval error
	exitUsage     = 2
	exitDeadline  = 3 // -timeout expired mid-evaluation
	exitInterrupt = 4 // SIGINT/SIGTERM
	exitLimit     = 5 // search limit (Limits budget) exhausted
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpml", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphFile  = fs.String("graph", "", "graph JSON file (default: the paper's Figure 1 graph)")
		gqlMode    = fs.Bool("gql", false, "GQL host mode (allows element equality)")
		bindings   = fs.Bool("bindings", false, "print reduced path binding tables (§6.4 presentation)")
		normalized = fs.Bool("normalized", false, "print the normalized pattern before results")
		maxMatches = fs.Int("max-matches", 0, "cap on raw matches per pattern (0 = default)")
		csr        = fs.Bool("csr", false, "evaluate on an immutable CSR snapshot of the graph")
		overlay    = fs.Bool("overlay", false, "evaluate on an epoch-snapshot overlay store layered over a CSR snapshot")
		explain    = fs.Bool("explain", false, "print which engine (dfs/bfs/automaton) evaluates each pattern")
		timeout    = fs.Duration("timeout", 0, "abort evaluation after this duration (streaming cancellation; 0 = none)")
		first      = fs.Int("first", 0, "stream only the first N rows (LIMIT pushdown; 0 = all rows)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	// Zero means "no limit" for each of these; a negative value is a
	// mistake, not a wish for no limit.
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"first", *first < 0},
		{"max-matches", *maxMatches < 0},
		{"timeout", *timeout < 0},
	} {
		if f.negative {
			fmt.Fprintf(stderr, "gpml: -%s must not be negative\n", f.name)
			return exitUsage
		}
	}

	query := strings.TrimSpace(strings.Join(fs.Args(), " "))
	if query == "" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "gpml:", err)
			return exitError
		}
		query = strings.TrimSpace(string(data))
	}
	if query == "" {
		fmt.Fprintln(stderr, "usage: gpml [-graph file.json] 'MATCH ...'")
		return exitUsage
	}

	g, err := loadGraph(*graphFile)
	if err != nil {
		fmt.Fprintln(stderr, "gpml:", err)
		return exitError
	}

	var opts []gpml.Option
	if *gqlMode {
		opts = append(opts, gpml.GQLMode())
	}
	if *maxMatches > 0 {
		opts = append(opts, gpml.WithLimits(gpml.Limits{MaxMatches: *maxMatches}))
	}
	var evalOpts []gpml.Option
	if *overlay {
		// The serving-engine configuration: queries pin epoch snapshots of
		// the overlay, exactly as a process applying live mutations would.
		evalOpts = append(evalOpts, gpml.WithStore(gpml.NewOverlay(g)))
	} else if *csr {
		evalOpts = append(evalOpts, gpml.WithStore(gpml.Snapshot(g)))
	} else {
		// Explain and evaluation read cardinality statistics off the
		// store; pass the map graph explicitly so both see the same one.
		evalOpts = append(evalOpts, gpml.WithStore(g))
	}
	q, err := gpml.Compile(query, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "gpml:", err)
		if d := gpml.Diagnostic(query, err); d != "" {
			fmt.Fprintln(stderr, d)
		}
		return exitError
	}
	if *normalized {
		fmt.Fprintln(stdout, "normalized:", q.Normalized())
	}
	if *explain {
		for _, line := range q.Explain(evalOpts...) {
			fmt.Fprintln(stdout, "explain:", line)
		}
	}
	// Signals cancel the context; the deadline (if any) is layered on
	// top, so the two causes stay distinguishable from the final error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *first > 0 {
		evalOpts = append(evalOpts, gpml.WithLimit(*first))
	}

	// -first and -timeout run through the streaming pipeline: the limit
	// stops upstream enumeration after N rows, and an expired deadline
	// aborts the in-flight search with an error (partial rows are
	// discarded). Collect restores Eval's canonical row order.
	rows, err := q.Stream(ctx, nil, evalOpts...)
	if err != nil {
		return reportEvalError(stderr, query, *timeout, err)
	}
	res, err := rows.Collect()
	if err != nil {
		return reportEvalError(stderr, query, *timeout, err)
	}

	if *bindings {
		fmt.Fprint(stdout, gpml.FormatBindings(res))
	} else {
		fmt.Fprint(stdout, gpml.FormatResult(res))
	}
	if *first > 0 && len(res.Rows) == *first {
		// The limit bit: more rows may exist beyond the cut.
		fmt.Fprintf(stdout, "(first %d rows)\n", len(res.Rows))
	} else {
		fmt.Fprintf(stdout, "(%d rows)\n", len(res.Rows))
	}
	return exitOK
}

// reportEvalError maps the error that ended evaluation to a message and
// exit code that name the cause instead of surfacing a bare
// context.DeadlineExceeded.
func reportEvalError(stderr io.Writer, query string, timeout interface{ String() string }, err error) int {
	var lim *gpml.LimitError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(stderr, "gpml: evaluation timed out after %s (deadline exceeded mid-stream; partial rows discarded)\n", timeout)
		return exitDeadline
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "gpml: interrupted (evaluation cancelled before completion)")
		return exitInterrupt
	case errors.As(err, &lim):
		fmt.Fprintf(stderr, "gpml: search limit exhausted: %v (raise -max-matches or tighten the pattern)\n", err)
		return exitLimit
	}
	fmt.Fprintln(stderr, "gpml:", err)
	if d := gpml.Diagnostic(query, err); d != "" {
		fmt.Fprintln(stderr, d)
	}
	return exitError
}

func loadGraph(path string) (*gpml.Graph, error) {
	if path == "" {
		return gpml.Fig1(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadJSON(f)
}
