// Package plan performs the static analysis of GPML statements (variable
// classification into singleton/group and conditional/unconditional, the
// termination rules of §5, the prohibition of §5.3, and the illegal
// equi-join rule of §4.6) and compiles each path pattern into a small
// instruction graph executed by the eval package.
package plan

import (
	"fmt"

	"gpml/internal/ast"
)

// OpCode enumerates the pattern-matching instructions.
type OpCode uint8

// Instruction opcodes. The compiled program is a graph of instructions;
// OpSplit forks, everything else has a single successor. OpEdge is the only
// instruction that consumes a path step; all others are "epsilon"
// instructions executed between steps.
const (
	OpNode       OpCode = iota // check/bind a node pattern at the current position
	OpEdge                     // traverse one edge matching an edge pattern
	OpSplit                    // fork to Next and Alt
	OpLoopStart                // push iteration counter for quantifier QID
	OpLoopCheck                // iterate (Next) or exit (Alt) based on counter/bounds
	OpIterStart                // begin one quantifier iteration (fresh local scope)
	OpIterEnd                  // commit one iteration, loop back to check
	OpLoopEnd                  // pop counter, continue
	OpScopeStart               // push a restrictor scope (path-level or paren)
	OpScopeEnd                 // pop the restrictor scope
	OpWhere                    // evaluate a parenthesized pattern's WHERE prefilter
	OpTag                      // record a multiset alternation branch tag
	OpAccept                   // pattern complete: emit the path binding
)

// String names the opcode.
func (o OpCode) String() string {
	switch o {
	case OpNode:
		return "node"
	case OpEdge:
		return "edge"
	case OpSplit:
		return "split"
	case OpLoopStart:
		return "loop-start"
	case OpLoopCheck:
		return "loop-check"
	case OpIterStart:
		return "iter-start"
	case OpIterEnd:
		return "iter-end"
	case OpLoopEnd:
		return "loop-end"
	case OpScopeStart:
		return "scope-start"
	case OpScopeEnd:
		return "scope-end"
	case OpWhere:
		return "where"
	case OpTag:
		return "tag"
	case OpAccept:
		return "accept"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Instr is one instruction. Fields are used per opcode.
type Instr struct {
	Op   OpCode
	Next int
	Alt  int // OpSplit: second branch; OpLoopCheck: exit target

	Node *ast.NodePattern // OpNode
	Edge *ast.EdgePattern // OpEdge

	QID      int // quantifier index (loop/iter ops)
	Min, Max int // loop bounds (Max < 0 = unbounded)

	SID        int            // restrictor scope index (scope ops)
	Restrictor ast.Restrictor // OpScopeStart

	Where ast.Expr // OpWhere

	Union, Branch int // OpTag
}

// Prog is a compiled path pattern.
type Prog struct {
	Instrs []Instr
	Start  int

	NumQuants int
	NumScopes int

	// PrefilterGroups maps each group variable prefilters reference
	// (through aggregates) to the ids of the quantifiers enclosing its
	// declaration, outermost first. A prefilter reads the bindings the
	// variable made since the current iteration of the innermost of them
	// that encloses the prefilter began (all of them when none does). The
	// BFS engine must include their accumulated values in its pruning key.
	// The §5.3 check guarantees the quantifiers feeding them are
	// effectively bounded.
	PrefilterGroups map[string][]int
	// GroupScopes marks, by quantifier id, the quantifiers whose current
	// iteration bounds such a read (nil when none does): where that
	// iteration began belongs in the BFS pruning key too.
	GroupScopes []bool
}

// String disassembles the program for debugging.
func (p *Prog) String() string {
	out := fmt.Sprintf("start=%d\n", p.Start)
	for i, in := range p.Instrs {
		out += fmt.Sprintf("%3d: %-12s next=%d", i, in.Op, in.Next)
		switch in.Op {
		case OpSplit, OpLoopCheck:
			out += fmt.Sprintf(" alt=%d", in.Alt)
		case OpNode:
			out += " " + in.Node.String()
		case OpEdge:
			out += " " + in.Edge.String()
		case OpLoopStart, OpIterStart, OpIterEnd, OpLoopEnd:
			out += fmt.Sprintf(" q=%d", in.QID)
		case OpScopeStart:
			out += fmt.Sprintf(" s=%d %s", in.SID, in.Restrictor)
		case OpScopeEnd:
			out += fmt.Sprintf(" s=%d", in.SID)
		case OpTag:
			out += fmt.Sprintf(" tag=%d.%d", in.Union, in.Branch)
		}
		out += "\n"
	}
	return out
}

// compiler builds the instruction graph bottom-up (successors first).
type compiler struct {
	instrs []Instr
	quants map[*ast.Quantified]int
	unions map[*ast.Union]int
	scopes int
}

func (c *compiler) emit(in Instr) int {
	c.instrs = append(c.instrs, in)
	return len(c.instrs) - 1
}

// Compile translates a normalized path pattern into a program. The ids maps
// assign stable indices to quantifiers and unions, shared with the
// analysis pass.
func compileProg(pp *ast.PathPattern, quants map[*ast.Quantified]int, unions map[*ast.Union]int) *Prog {
	c := &compiler{quants: quants, unions: unions}
	accept := c.emit(Instr{Op: OpAccept})
	next := accept
	if pp.Restrictor != ast.NoRestrictor {
		// The path-level restrictor is a scope around the whole pattern.
		sid := c.scopes
		c.scopes++
		end := c.emit(Instr{Op: OpScopeEnd, SID: sid, Next: accept})
		entry := c.compileExpr(pp.Expr, end)
		start := c.emit(Instr{Op: OpScopeStart, SID: sid, Restrictor: pp.Restrictor, Next: entry})
		return &Prog{Instrs: c.instrs, Start: start, NumQuants: len(quants), NumScopes: c.scopes}
	}
	entry := c.compileExpr(pp.Expr, next)
	return &Prog{Instrs: c.instrs, Start: entry, NumQuants: len(quants), NumScopes: c.scopes}
}

// compileExpr returns the entry pc of code for e that continues at next.
func (c *compiler) compileExpr(e ast.PathExpr, next int) int {
	switch x := e.(type) {
	case *ast.Concat:
		entry := next
		for i := len(x.Elems) - 1; i >= 0; i-- {
			entry = c.compileExpr(x.Elems[i], entry)
		}
		return entry
	case *ast.NodePattern:
		return c.emit(Instr{Op: OpNode, Node: x, Next: next})
	case *ast.EdgePattern:
		return c.emit(Instr{Op: OpEdge, Edge: x, Next: next})
	case *ast.Paren:
		return c.compileParen(x, next)
	case *ast.Quantified:
		return c.compileQuantified(x, next)
	case *ast.Union:
		return c.compileUnion(x, next)
	default:
		panic(fmt.Sprintf("plan: cannot compile %T", e))
	}
}

func (c *compiler) compileParen(p *ast.Paren, next int) int {
	after := next
	if p.Where != nil {
		after = c.emit(Instr{Op: OpWhere, Where: p.Where, Next: after})
	}
	if p.Restrictor != ast.NoRestrictor {
		sid := c.scopes
		c.scopes++
		end := c.emit(Instr{Op: OpScopeEnd, SID: sid, Next: after})
		inner := c.compileExpr(p.Expr, end)
		return c.emit(Instr{Op: OpScopeStart, SID: sid, Restrictor: p.Restrictor, Next: inner})
	}
	return c.compileExpr(p.Expr, after)
}

func (c *compiler) compileQuantified(q *ast.Quantified, next int) int {
	if q.Question {
		// ? keeps inner singletons conditional: no iteration machinery.
		body := c.compileExpr(q.Inner, next)
		return c.emit(Instr{Op: OpSplit, Next: body, Alt: next})
	}
	qid := c.quants[q]
	loopEnd := c.emit(Instr{Op: OpLoopEnd, QID: qid, Next: next})
	// Forward-declare the check so the body can loop back to it.
	check := c.emit(Instr{Op: OpLoopCheck, QID: qid, Min: q.Min, Max: q.Max})
	// IterEnd.Alt is the loop exit, used by the zero-width iteration guard.
	iterEnd := c.emit(Instr{Op: OpIterEnd, QID: qid, Min: q.Min, Max: q.Max, Next: check, Alt: loopEnd})
	body := c.compileExpr(q.Inner, iterEnd)
	iterStart := c.emit(Instr{Op: OpIterStart, QID: qid, Next: body})
	c.instrs[check].Next = iterStart
	c.instrs[check].Alt = loopEnd
	return c.emit(Instr{Op: OpLoopStart, QID: qid, Min: q.Min, Max: q.Max, Next: check})
}

func (c *compiler) compileUnion(u *ast.Union, next int) int {
	uid := c.unions[u]
	multiset := len(u.Ops) > 0 && u.Ops[0] == ast.Multiset
	entries := make([]int, len(u.Branches))
	for i, br := range u.Branches {
		entry := c.compileExpr(br, next)
		if multiset {
			entry = c.emit(Instr{Op: OpTag, Union: uid, Branch: i, Next: entry})
		}
		entries[i] = entry
	}
	// Chain of splits: split(b0, split(b1, … split(bn-2, bn-1)))
	fork := entries[len(entries)-1]
	for i := len(entries) - 2; i >= 0; i-- {
		fork = c.emit(Instr{Op: OpSplit, Next: entries[i], Alt: fork})
	}
	return fork
}
