package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpml/internal/dataset"
)

// runCLI invokes run() as a user would, capturing both streams.
func runCLI(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// bigGraphFile writes a graph large enough that unbounded TRAIL
// enumeration cannot finish within a short deadline.
func bigGraphFile(t *testing.T) string {
	t.Helper()
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 800, AvgDegree: 4, Cities: 8, Phones: 20,
		BlockedFraction: 0.1, Seed: 7, UndirectedPhones: true,
	})
	path := filepath.Join(t.TempDir(), "big.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSuccess(t *testing.T) {
	code, out, errb := runCLI(t, []string{`MATCH (x:Account WHERE x.isBlocked = 'yes')`}, "")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, exitOK, errb)
	}
	if !strings.Contains(out, "rows)") {
		t.Errorf("stdout missing row count:\n%s", out)
	}
}

func TestRunUsageExitCode(t *testing.T) {
	code, _, _ := runCLI(t, nil, "")
	if code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
}

// A negative limit is a usage error naming its flag, not "no limit".
func TestRunNegativeLimitUsage(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"first", "-1"},
		{"max-matches", "-5"},
		{"timeout", "-1s"},
	} {
		args := []string{"-" + c.flag, c.value, `MATCH (a:Account)-[t:Transfer]->(b)`}
		code, out, errb := runCLI(t, args, "")
		if code != exitUsage {
			t.Errorf("-%s %s: exit = %d, want %d", c.flag, c.value, code, exitUsage)
		}
		if !strings.Contains(errb, "-"+c.flag+" ") {
			t.Errorf("-%s %s: stderr does not name the flag: %q", c.flag, c.value, errb)
		}
		if out != "" {
			t.Errorf("-%s %s: printed rows:\n%s", c.flag, c.value, out)
		}
	}
}

// Compile errors exit 1 and point at the offending column with a caret;
// a character outside the grammar is one of them.
func TestRunCompileErrorCaret(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{`MATCH (a)-[e->(b)`, "parse error"},
		{`MATCH (a)→(b)`, "lex error at 1:10: unexpected character '→'"},
	} {
		code, _, errb := runCLI(t, []string{tc.query}, "")
		if code != exitError {
			t.Fatalf("%s: exit = %d, want %d", tc.query, code, exitError)
		}
		if !strings.Contains(errb, tc.want) {
			t.Errorf("stderr missing %q:\n%s", tc.want, errb)
		}
		lines := strings.Split(strings.TrimRight(errb, "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("stderr has no caret diagnostic:\n%s", errb)
		}
		src, caret := lines[len(lines)-2], lines[len(lines)-1]
		if !strings.Contains(src, tc.query) {
			t.Errorf("diagnostic missing source line:\n%s", errb)
		}
		if !strings.HasSuffix(caret, "^") {
			t.Errorf("diagnostic missing caret line:\n%s", errb)
		}
		// The caret must sit under the position the error reports.
		if line, col, ok := errPosition(errb); !ok {
			t.Errorf("error line carries no position:\n%s", errb)
		} else if line == 1 {
			// caret column: offset within the source line (2-space gutter).
			caretCol := len(caret) - len("^") - len("  ") + 1
			if caretCol != col {
				t.Errorf("caret at col %d, error reports col %d:\n%s", caretCol, col, errb)
			}
		}
	}
}

// errPosition extracts "at L:C" from the first stderr line.
func errPosition(stderr string) (line, col int, ok bool) {
	first := strings.SplitN(stderr, "\n", 2)[0]
	i := strings.Index(first, " at ")
	if i < 0 {
		return 0, 0, false
	}
	var l, c int
	rest := first[i+4:]
	if j := strings.IndexByte(rest, ':'); j > 0 {
		if k := strings.IndexByte(rest[j+1:], ':'); k > 0 {
			_, err1 := parseInt(rest[:j], &l)
			_, err2 := parseInt(rest[j+1:j+1+k], &c)
			if err1 == nil && err2 == nil {
				return l, c, true
			}
		}
	}
	return 0, 0, false
}

func parseInt(s string, out *int) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errNotDigit
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}

var errNotDigit = os.ErrInvalid

// -timeout firing mid-stream exits with the dedicated deadline code and
// a message naming the cause, not a bare context.DeadlineExceeded.
func TestRunDeadlineExitCode(t *testing.T) {
	path := bigGraphFile(t)
	code, _, errb := runCLI(t, []string{
		"-graph", path, "-timeout", "30ms",
		`MATCH TRAIL (x:Account)-[t:Transfer]->+(y:Account)`,
	}, "")
	if code != exitDeadline {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, exitDeadline, errb)
	}
	if !strings.Contains(errb, "timed out") || strings.Contains(errb, "context deadline exceeded\n") {
		t.Errorf("stderr should name the deadline cause:\n%s", errb)
	}
}

// A search-limit budget trip exits with the limit code, distinct from
// deadline and generic errors.
func TestRunLimitExitCode(t *testing.T) {
	code, _, errb := runCLI(t, []string{
		"-max-matches", "1",
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
	}, "")
	if code != exitLimit {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, exitLimit, errb)
	}
	if !strings.Contains(errb, "limit") {
		t.Errorf("stderr should mention the limit:\n%s", errb)
	}
}

// Interrupt (context.Canceled reaching the error mapper) exits with the
// interrupt code. The signal path itself is exercised manually; the
// mapping is what the satellite fix pins down.
func TestReportEvalErrorInterrupt(t *testing.T) {
	var errb strings.Builder
	code := reportEvalError(&errb, "MATCH (x)", time.Duration(0), context.Canceled)
	if code != exitInterrupt {
		t.Fatalf("exit = %d, want %d", code, exitInterrupt)
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr should say interrupted:\n%s", errb.String())
	}
}
