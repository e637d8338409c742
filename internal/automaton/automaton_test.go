package automaton

import (
	"strings"
	"testing"

	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// prog compiles the first path pattern of a MATCH statement.
func prog(t *testing.T, src string) *plan.Prog {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		t.Fatalf("normalize %q: %v", src, err)
	}
	p, err := plan.Analyze(norm, plan.Options{})
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return p.Paths[0].Prog
}

// counts tallies the automaton's transitions.
func counts(n *NFA) (eps, guarded, steps, accepts int) {
	for _, s := range n.States {
		for _, e := range s.Eps {
			eps++
			if e.Node != nil {
				guarded++
			}
		}
		steps += len(s.Steps)
		if s.Accept {
			accepts++
		}
	}
	return
}

// A fixed-length chain compiles to a linear automaton: one guarded epsilon
// per node pattern, one step per edge pattern, one accept.
func TestCompileChain(t *testing.T) {
	n, err := Compile(prog(t, `MATCH ALL SHORTEST (a)-[e:T]->(b)-[f:U]->(c)`), true)
	if err != nil {
		t.Fatal(err)
	}
	eps, guarded, steps, accepts := counts(n)
	if steps != 2 || guarded != 3 || accepts != 1 {
		t.Errorf("chain automaton: eps=%d guarded=%d steps=%d accepts=%d\n%s", eps, guarded, steps, accepts, n)
	}
}

// An unbounded quantifier's counter clamps at the minimum, keeping the
// automaton finite: the {2,} loop needs states for counter values 0,1,2
// only.
func TestCompileUnboundedClamp(t *testing.T) {
	n, err := Compile(prog(t, `MATCH ALL SHORTEST (a) [()-[e:T]->()]{2,} (b)`), true)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumStates() > 24 {
		t.Errorf("unbounded quantifier automaton has %d states, want a small clamped set\n%s", n.NumStates(), n)
	}
	if _, _, steps, accepts := counts(n); steps == 0 || accepts != 1 {
		t.Errorf("unbounded automaton lacks steps or accept:\n%s", n)
	}
}

// A bounded quantifier unrolls into one state group per counter value.
func TestCompileBoundedUnroll(t *testing.T) {
	small, err := Compile(prog(t, `MATCH ANY SHORTEST (a)-[e:T]->{1,2}(b)`), true)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Compile(prog(t, `MATCH ANY SHORTEST (a)-[e:T]->{1,8}(b)`), true)
	if err != nil {
		t.Fatal(err)
	}
	if large.NumStates() <= small.NumStates() {
		t.Errorf("bounded unrolling: {1,8} has %d states, {1,2} has %d", large.NumStates(), small.NumStates())
	}
}

// Oversized bounds exhaust the state budget with a descriptive error.
func TestCompileStateBudget(t *testing.T) {
	_, err := Compile(prog(t, `MATCH ANY SHORTEST (a)-[e:T]->{1,2000}(b)`), true)
	if err == nil || !strings.Contains(err.Error(), "state budget") {
		t.Errorf("expected state-budget error, got %v", err)
	}
}

// Restrictor scopes are not memoryless and must be rejected.
func TestCompileRejectsScopes(t *testing.T) {
	_, err := Compile(prog(t, `MATCH ALL SHORTEST TRAIL (a)-[e:T]->+(b)`), true)
	if err == nil || !strings.Contains(err.Error(), "restrictor") {
		t.Errorf("expected restrictor rejection, got %v", err)
	}
}

// The zero-width-iteration rule: a node-only body below the quantifier
// minimum repeats in place until the minimum is met, so {2,2}, {2,3} and
// {2,} all reach accept. Compile's bool argument is unread.
func TestZeroWidthRules(t *testing.T) {
	for _, q := range []string{"{2,2}", "{2,3}", "{2,}"} {
		p := prog(t, `MATCH ANY SHORTEST (x) [(y)]`+q+` (z)`)
		for _, flag := range []bool{false, true} {
			n, err := Compile(p, flag)
			if err != nil {
				t.Fatal(err)
			}
			// With no edges in the pattern, acceptance is reachability
			// through (possibly guarded) epsilon moves.
			if !epsilonAccepts(n) {
				t.Errorf("zero-width %s (Compile flag %v) should reach accept\n%s", q, flag, n)
			}
		}
	}
}

// Reverse flips every transition over the same state numbering: guards
// stay on their epsilon moves, steps mirror their orientation, and the
// forward start and (single) accepting state swap roles.
func TestReverse(t *testing.T) {
	for _, src := range []string{
		`MATCH ALL SHORTEST (a)-[e:T]->(b)<~[f:U]~(c)`,
		`MATCH ALL SHORTEST (a) [()-[e:T]->() | ()<-[f:T]-()]{2,} (b WHERE b.x = 1)`,
		`MATCH ANY SHORTEST (a)-[e:T]-{1,4}(b)`,
	} {
		n, err := Compile(prog(t, src), true)
		if err != nil {
			t.Fatal(err)
		}
		r := n.Reverse()
		if _, _, _, accepts := counts(n); accepts != 1 || !n.States[r.Start].Accept || !r.States[n.Start].Accept {
			t.Fatalf("%s: start %d of the reversal is not the one forward accept\n%s", src, r.Start, n)
		}
		if eps, guarded, steps, accepts := counts(r); accepts != 1 {
			t.Errorf("%s: reversal has %d accepting states", src, accepts)
		} else if e2, g2, s2, _ := counts(n); eps != e2 || guarded != g2 || steps != s2 {
			t.Errorf("%s: reversal has eps=%d guarded=%d steps=%d, forward %d/%d/%d", src, eps, guarded, steps, e2, g2, s2)
		}
		for q, s := range n.States {
			for _, st := range s.Steps {
				found := false
				for _, back := range r.States[st.To].Steps {
					found = found || back.To == q && back.Edge.Orientation == st.Edge.Orientation.Mirror() && back.Edge.Label == st.Edge.Label
				}
				if !found {
					t.Errorf("%s: step %d→%d has no mirrored reverse", src, q, st.To)
				}
			}
		}
	}
	// An automaton with no accepting state reverses without a start state.
	if r := (&NFA{States: []State{{Eps: []Eps{{To: 0}}}}}).Reverse(); r.Start != -1 {
		t.Errorf("no accept: reversal start %d, want -1", r.Start)
	}
}

// epsilonAccepts reports whether an accept state is reachable from the
// start through epsilon transitions alone (node guards ignored).
func epsilonAccepts(n *NFA) bool {
	seen := make([]bool, n.NumStates())
	stack := []int{n.Start}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[q] {
			continue
		}
		seen[q] = true
		if n.States[q].Accept {
			return true
		}
		for _, e := range n.States[q].Eps {
			stack = append(stack, e.To)
		}
	}
	return false
}
