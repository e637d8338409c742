// Command bench is the served-query benchmark of the gpml module: it
// builds ./cmd/gpmld, starts it as a child process on a loopback port,
// drives it closed-loop over HTTP, checks every answer against an
// in-process oracle, and prints every metric by name with its unit. See
// README.md for the workloads, the metrics and what moves which.
//
// Usage (from the repository root):
//
//	go run -C bench . [-workload NAME] [-seed N] [-trace 0|1] [-aa]
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics of the traced pass with -trace 1.
// Without it every workload runs in turn. -aa runs the whole set twice on
// the same binary and fails when two runs of the same code disagree by
// more than a metric's bound. The driver's contract also passes
// -seconds, always BENCHMARK.json's run_seconds, which is the default.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit codes: 0 every answer correct, 1 a wrong answer or a bound breached
// (-aa), 2 the benchmark could not be set up or run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all five in turn)")
	seed := fs.Int64("seed", 1, "seed of the request schedule")
	seconds := fs.Float64("seconds", windowSeconds, "length of the measured window; the driver's contract passes it, leave it alone otherwise")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and out/trace-<workload>.json")
	aa := fs.Bool("aa", false, "run the set twice on the same binary and compare against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	base := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(base.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	env := readEnvironment(root, base.outDir)
	if *aa {
		return runAA(base, env, stdout, stderr)
	}
	var outs []*runOutput
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		base.w = w
		o, err := runOne(base)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		printTable(stdout, o)
		outs = []*runOutput{o}
	} else if outs, err = runSet(base, workloads, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	doc := report{Env: env, Seconds: *seconds, Runs: outs}
	if err := writeResult(base.outDir, doc, "result.json"); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// The last line: the contract's object for one workload, the whole
	// document otherwise.
	var last any = doc
	if *name != "" {
		last, err = contractLine(outs[0])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	raw, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	for _, o := range outs {
		if !o.Correct {
			return 1
		}
	}
	return 0
}

// report is the one JSON document a run of the benchmark produces.
type report struct {
	Env     environment  `json:"env"`
	Seconds float64      `json:"seconds"`
	Runs    []*runOutput `json:"runs"`
}

// moduleRoot finds the gpml module from the working directory: the bench
// directory itself (`go run -C bench .`) or the repository root.
func moduleRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module gpml\n") {
			return dir, nil
		}
	}
	return "", errors.New("cannot find the gpml module (run as `go run -C bench .` from the repository root)")
}

// runOne prepares and runs one workload.
func runOne(cfg runConfig) (*runOutput, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	var o *runOutput
	if cfg.w.inProc {
		o, err = runMixed(cfg, p)
	} else {
		o, err = runServed(cfg, p)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.w.name, d.Name)
		}
	}
	return o, nil
}

// runSet runs the workloads in order, each in a process of its own as the
// driver runs them, and passes their tables on. A workload that followed
// others in one process would find their heap and the collector's pace,
// which moved snb_mixed_rw's write latency by a fifth.
func runSet(base runConfig, set []workload, stdout io.Writer) ([]*runOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if base.trace {
		trace = "1"
	}
	var outs []*runOutput
	for _, w := range set {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(base.seed, 10),
			"-seconds", strconv.FormatFloat(base.seconds, 'g', -1, 64), "-trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// Exit status 1 is a run with a wrong answer, reported like any other.
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		table, _, _ := strings.Cut(string(out), "\n{") // all but the contract's line
		fmt.Fprintln(stdout, table)
		var doc report
		raw, err := os.ReadFile(filepath.Join(base.outDir, "result.json"))
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		if err != nil || len(doc.Runs) != 1 || doc.Runs[0].Workload != w.name {
			return nil, fmt.Errorf("%s: no result from its process (%v)", w.name, err)
		}
		outs = append(outs, doc.Runs[0])
	}
	return outs, nil
}

// printTable is the human view of one run.
func printTable(w io.Writer, o *runOutput) {
	mode := "end to end"
	defs := endToEnd
	if o.Trace {
		mode, defs = "traced pass", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  correct=%v  attempted=%d  failed=%d\n", o.Workload, o.Seed, mode, o.Correct, o.Attempted, o.Failed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	for _, d := range defs {
		m := o.Metrics[d.Name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	tw.Flush()
	for _, n := range o.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintln(w)
}

// contractLine is the object the benchmark driver reads.
func contractLine(o *runOutput) (any, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m := o.Metrics[d.Name]
		metrics[d.Name] = value{m.Value, m.Unit}
	}
	if o.Attempted < 1 {
		return nil, errors.New("nothing was attempted")
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics}, nil
}
