// Package automaton compiles path-pattern programs into small
// nondeterministic finite automata over edge steps. GPC ("GPC: A Pattern
// Calculus for Property Graphs") observes that GPML's quantifier/union
// structure is exactly a regular expression over edge steps; this package
// makes that explicit so the evaluator can run selector-bounded patterns
// (ANY/ALL SHORTEST, bounded quantifiers) as a breadth-first search over
// the product of the graph with the automaton instead of enumerating and
// filtering walks.
//
// The automaton is built from the compiled plan.Prog by abstract
// interpretation: quantifier counters are unrolled into distinct states
// (clamped at the minimum for unbounded quantifiers, where all larger
// counts behave identically), and every iteration frame carries a
// "progress" bit so the zero-width-iteration guard of the evaluators is
// reproduced exactly. The result is memoryless: a state plus a graph
// position determines all future behaviour, which is what makes the
// product search sound. Patterns whose steps are not memoryless
// (restrictors, equi-joins through repeated variables, predicates over
// other elements or group aggregates) are rejected by the plan-layer
// eligibility analysis before this package is consulted.
package automaton

import (
	"fmt"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/plan"
)

// MaxStates caps the automaton size. Counter unrolling is exponential in
// quantifier nesting depth in the worst case; patterns that exceed the cap
// fall back to the enumerating engines.
const MaxStates = 512

// Eps is an epsilon transition: it consumes no edge. When Node is non-nil
// the transition is guarded by the node pattern, evaluated against the
// current graph position (label check plus the pattern's own WHERE).
type Eps struct {
	To   int
	Node *ast.NodePattern
}

// Step is an edge-consuming transition carrying the edge pattern whose
// orientation, label expression and WHERE admit the traversal.
type Step struct {
	To   int
	Edge *ast.EdgePattern
}

// State is one automaton state.
type State struct {
	Accept bool
	Eps    []Eps
	Steps  []Step
}

// NFA is the compiled pattern automaton.
type NFA struct {
	Start  int
	States []State
}

// NumStates reports the number of states.
func (n *NFA) NumStates() int { return len(n.States) }

// Reverse builds the reversed language's automaton over the same state
// numbering: each Step q→q' becomes q'→q with its orientation mirrored,
// each Eps q→q' becomes q'→q under the same node guard, the forward start
// is the only accepting state, and the start is the forward accepting
// state — Compile interns at most one, the empty-stack configuration at
// the single OpAccept; Start is -1 when acceptance is unreachable.
func (n *NFA) Reverse() *NFA {
	r := &NFA{Start: -1, States: make([]State, len(n.States))}
	for q, s := range n.States {
		if s.Accept {
			r.Start = q
		}
		for _, e := range s.Eps {
			r.States[e.To].Eps = append(r.States[e.To].Eps, Eps{To: q, Node: e.Node})
		}
		for _, st := range s.Steps {
			mirrored := *st.Edge
			mirrored.Orientation = mirrored.Orientation.Mirror()
			r.States[st.To].Steps = append(r.States[st.To].Steps, Step{To: q, Edge: &mirrored})
		}
	}
	r.States[n.Start].Accept = true
	return r
}

// String renders the automaton for debugging.
func (n *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "start=%d states=%d\n", n.Start, len(n.States))
	for i, s := range n.States {
		fmt.Fprintf(&b, "%3d:", i)
		if s.Accept {
			b.WriteString(" accept")
		}
		for _, e := range s.Eps {
			if e.Node != nil {
				fmt.Fprintf(&b, " ε→%d[%s]", e.To, e.Node)
			} else {
				fmt.Fprintf(&b, " ε→%d", e.To)
			}
		}
		for _, st := range s.Steps {
			fmt.Fprintf(&b, " %s→%d", st.Edge, st.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// config is the micro-state of the abstract interpretation: a program
// counter plus the active quantifier counters and per-iteration progress
// bits. Counters of unbounded quantifiers are clamped at the quantifier
// minimum (all larger values behave identically under OpLoopCheck), which
// keeps the state space finite.
type config struct {
	pc       int
	counters []int
	progress []bool // one bit per active iteration frame: edge consumed?
}

func (c config) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", c.pc)
	for _, v := range c.counters {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('|')
	for _, p := range c.progress {
		if p {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (c config) withPC(pc int) config {
	c.pc = pc
	return c
}

func (c config) pushCounter() config {
	c.counters = append(append([]int(nil), c.counters...), 0)
	return c
}

func (c config) popCounter() config {
	c.counters = append([]int(nil), c.counters[:len(c.counters)-1]...)
	return c
}

// bumpCounter increments the top counter, clamping at min for unbounded
// quantifiers (max < 0).
func (c config) bumpCounter(min, max int) config {
	c.counters = append([]int(nil), c.counters...)
	top := len(c.counters) - 1
	c.counters[top]++
	if max < 0 && c.counters[top] > min {
		c.counters[top] = min
	}
	return c
}

func (c config) pushFrame() config {
	c.progress = append(append([]bool(nil), c.progress...), false)
	return c
}

func (c config) popFrame() config {
	c.progress = append([]bool(nil), c.progress[:len(c.progress)-1]...)
	return c
}

// markProgress sets every active frame's progress bit: an edge consumed
// inside a nested iteration also makes every enclosing iteration
// non-zero-width.
func (c config) markProgress() config {
	c.progress = make([]bool, len(c.progress))
	for i := range c.progress {
		c.progress[i] = true
	}
	return c
}

// compiler interns configs as automaton states and derives transitions.
type compiler struct {
	prog      *plan.Prog
	states    []State
	configs   []config
	index     map[string]int
	maxStates int
}

// Compile builds the pattern automaton for a compiled program. A
// zero-width iteration (one that consumes no edge) repeats in place until
// the quantifier minimum is met, then exits the loop, as in every engine.
//
// The bool parameter is unread; it is kept so existing callers compile.
//
// Compile fails (with a descriptive error) on programs that are not
// memoryless — restrictor scopes or subpattern WHERE prefilters — and on
// programs whose counter unrolling exceeds MaxStates.
func Compile(prog *plan.Prog, _ bool) (*NFA, error) {
	c := &compiler{
		prog:      prog,
		index:     map[string]int{},
		maxStates: MaxStates,
	}
	start, err := c.intern(config{pc: prog.Start})
	if err != nil {
		return nil, err
	}
	// Worklist: states are expanded once, in interning order; expanding a
	// state may intern new ones.
	for i := 0; i < len(c.states); i++ {
		if err := c.expand(i); err != nil {
			return nil, err
		}
	}
	return &NFA{Start: start, States: c.states}, nil
}

// intern returns the state id of a config, allocating it if new.
func (c *compiler) intern(cf config) (int, error) {
	k := cf.key()
	if id, ok := c.index[k]; ok {
		return id, nil
	}
	if len(c.states) >= c.maxStates {
		return 0, fmt.Errorf("automaton: state budget (%d) exceeded; quantifier bounds too large", c.maxStates)
	}
	id := len(c.states)
	c.index[k] = id
	c.states = append(c.states, State{})
	c.configs = append(c.configs, cf)
	return id, nil
}

// expand derives the transitions of one state from its instruction.
func (c *compiler) expand(id int) error {
	cf := c.configs[id]
	in := &c.prog.Instrs[cf.pc]
	eps := func(next config, node *ast.NodePattern) error {
		to, err := c.intern(next)
		if err != nil {
			return err
		}
		c.states[id].Eps = append(c.states[id].Eps, Eps{To: to, Node: node})
		return nil
	}
	switch in.Op {
	case plan.OpAccept:
		c.states[id].Accept = true
		return nil
	case plan.OpNode:
		return eps(cf.withPC(in.Next), in.Node)
	case plan.OpEdge:
		// Consuming an edge marks progress in every enclosing iteration.
		to, err := c.intern(cf.withPC(in.Next).markProgress())
		if err != nil {
			return err
		}
		c.states[id].Steps = append(c.states[id].Steps, Step{To: to, Edge: in.Edge})
		return nil
	case plan.OpSplit:
		if err := eps(cf.withPC(in.Next), nil); err != nil {
			return err
		}
		return eps(cf.withPC(in.Alt), nil)
	case plan.OpLoopStart:
		return eps(cf.pushCounter().withPC(in.Next), nil)
	case plan.OpLoopCheck:
		n := cf.counters[len(cf.counters)-1]
		if n < in.Min {
			return eps(cf.withPC(in.Next), nil) // must iterate
		}
		if err := eps(cf.withPC(in.Alt), nil); err != nil { // may exit
			return err
		}
		if in.Max < 0 || n < in.Max {
			return eps(cf.withPC(in.Next), nil) // may iterate further
		}
		return nil
	case plan.OpIterStart:
		return eps(cf.pushFrame().withPC(in.Next), nil)
	case plan.OpIterEnd:
		zeroWidth := !cf.progress[len(cf.progress)-1]
		next := cf.popFrame().bumpCounter(in.Min, in.Max)
		if !zeroWidth {
			return eps(next.withPC(in.Next), nil) // back to the check
		}
		// Zero-width iteration: mirror the engines' guard exactly.
		if next.counters[len(next.counters)-1] >= in.Min {
			return eps(next.withPC(in.Alt), nil) // forced loop exit
		}
		return eps(next.withPC(in.Next), nil) // repeat in place up to the minimum
	case plan.OpLoopEnd:
		return eps(cf.popCounter().withPC(in.Next), nil)
	case plan.OpTag:
		// Branch tags only affect bindings, which the evaluator rebuilds by
		// replaying the program over each reconstructed path.
		return eps(cf.withPC(in.Next), nil)
	case plan.OpScopeStart, plan.OpScopeEnd:
		return fmt.Errorf("automaton: restrictor scopes are not memoryless")
	case plan.OpWhere:
		return fmt.Errorf("automaton: subpattern WHERE prefilters are not memoryless")
	default:
		return fmt.Errorf("automaton: unknown opcode %v", in.Op)
	}
}
