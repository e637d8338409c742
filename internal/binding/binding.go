// Package binding implements path bindings, the paper's central semantic
// object (§6): a path binding is a sequence of elementary bindings, each a
// pair of a variable and a graph element. Variables under quantifiers carry
// iteration annotations (the paper's superscripts b¹, b², …). Reduction
// strips annotations and merges anonymous variables; reduced bindings are
// collected into a set (deduplication, §6.5), except that matches produced
// by different branches of a multiset alternation |+| carry branch tags
// that keep them distinct. The set only does work when two distinct raw
// matches can reduce alike; the evaluator builds it (Keyer, Dedup) only
// for the patterns whose plan says they can (plan.PathPlan.DupReason).
//
// Bindings are integer-dense: elements are referenced by their interned
// dense index (graph.ElemIdx) relative to the pinned view the binding was
// matched against (Src), and deduplication keys are compact varint-packed
// byte strings (Keyer). Element id strings only exist in two places: the
// canonical textual sort key (CanonKey — computed once per output row,
// when a canonical order or a selector choice is needed) and the
// rendering helpers (String, ValueRow, FormatTable).
//
// Bindings are borrowed, not owned. An engine hands its emit callback a
// binding it overwrites on the next match, path included, and a binding
// reduced into an Arena lives until the arena is reset. Reduce and Clone
// return copies the caller owns; ReduceInto borrows the caller's
// storage. Only the consumers that keep bindings copy them.
package binding

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/chunk"
	"gpml/internal/graph"
)

// ElemKind distinguishes node from edge bindings.
type ElemKind uint8

// Element kinds.
const (
	NodeElem ElemKind = iota
	EdgeElem
)

// String names the kind.
func (k ElemKind) String() string {
	if k == NodeElem {
		return "node"
	}
	return "edge"
}

// Ref identifies a bound graph element by kind and interned dense index.
// A Ref is only meaningful relative to the view that issued the index;
// within one query, two Refs name the same element exactly when they are
// equal. Materialize with ElemID when the id string is needed.
type Ref struct {
	Kind ElemKind
	Idx  graph.ElemIdx
}

// ElemID materializes the id of an interned element against its view.
// It returns "" for a nil view or an out-of-range index (zero-value
// bindings in tests); real bindings always resolve.
func ElemID(s graph.Stepper, kind ElemKind, idx graph.ElemIdx) string {
	if s == nil {
		return ""
	}
	if kind == NodeElem {
		if n := s.NodeByIndex(int(idx)); n != nil {
			return string(n.ID)
		}
		return ""
	}
	if e := s.EdgeByIndex(int(idx)); e != nil {
		return string(e.ID)
	}
	return ""
}

// IterAnn is the iteration annotation of an entry: the iteration indices
// of its enclosing quantifiers, outermost first (the paper's superscripts
// b¹, b²). Up to two nesting levels — the overwhelmingly common case —
// are stored inline, so annotating entries inside typical quantifier
// nests allocates nothing; deeper nests spill to Ext.
type IterAnn struct {
	n      uint8
	inline [2]int32
	ext    []int32
}

// Len reports the nesting depth.
func (a IterAnn) Len() int { return int(a.n) }

// At returns the iteration index at nesting level i (outermost first).
func (a IterAnn) At(i int) int {
	if i < 2 {
		return int(a.inline[i])
	}
	return int(a.ext[i-2])
}

// Push appends one nesting level (innermost last).
func (a *IterAnn) Push(v int) {
	if a.n < 2 {
		a.inline[a.n] = int32(v)
	} else {
		a.ext = append(a.ext, int32(v))
	}
	a.n++
}

// IterOf builds an annotation from explicit levels, for tests and
// fixtures.
func IterOf(levels ...int) IterAnn {
	var a IterAnn
	for _, v := range levels {
		a.Push(v)
	}
	return a
}

// Entry is one elementary binding: a (possibly annotated) variable paired
// with an interned graph element.
type Entry struct {
	Var   string // variable name; anonymous variables start with '$'
	Iters IterAnn
	Kind  ElemKind
	Idx   graph.ElemIdx
}

// DisplayVar renders the annotated variable (b1, b2, … for group entries;
// □/− for anonymous ones, annotations kept).
func (e Entry) DisplayVar() string {
	name := ast.ReducedVar(e.Var)
	if e.Iters.Len() == 0 {
		return name
	}
	parts := make([]string, e.Iters.Len())
	for i := range parts {
		parts[i] = strconv.Itoa(e.Iters.At(i) + 1) // paper numbers iterations from 1
	}
	return name + strings.Join(parts, ".")
}

// Tag records which branch of a multiset alternation produced the match;
// matches with different tag sequences never deduplicate (§4.5, §6.5).
type Tag struct {
	Union  int
	Branch int
}

// PathBinding is the (annotated) result of matching one path pattern.
// Src is the view the indices refer to. An emitted binding is valid only
// during the emit callback: the engine reuses it for the next match,
// Entries, Tags and Path included. A receiver that keeps it past the
// callback keeps a Clone, or reduces it with Reduce (owned) or ReduceInto
// (storage the receiver owns).
type PathBinding struct {
	Entries []Entry
	Tags    []Tag
	Path    graph.IdxPath
	PathVar string // "" when the pattern has no path variable
	Src     graph.Stepper
}

// Clone returns a copy that owns its Entries, Tags and Path.
func (b *PathBinding) Clone() *PathBinding {
	c := *b
	c.Entries = slices.Clone(b.Entries)
	c.Tags = slices.Clone(b.Tags)
	c.Path = copyPath(b.Path, make([]graph.ElemIdx, len(b.Path.Nodes)+len(b.Path.Edges)))
	return &c
}

// copyPath copies p into buf, which holds exactly its nodes and edges.
func copyPath(p graph.IdxPath, buf []graph.ElemIdx) graph.IdxPath {
	n := copy(buf, p.Nodes)
	copy(buf[n:], p.Edges)
	return graph.IdxPath{Nodes: buf[:n:n], Edges: buf[n:]}
}

// Reduced is a reduced path binding (§6.5): annotations stripped, anonymous
// variables merged to the markers □ and −. A Reduced is not changed once
// built, except by Reverse on a copy its caller owns; CanonKey memoizes
// its canonical textual identity (it is compared O(n log n) times during
// sorting).
type Reduced struct {
	Cols    []ReducedCol
	Tags    []Tag
	Path    graph.IdxPath
	PathVar string
	Src     graph.Stepper

	canon string // memoized CanonKey; "" = not yet computed
}

// ReducedCol is one column of a reduced binding.
type ReducedCol struct {
	Var  string // reduced display name (anonymous merged to □ / −)
	Kind ElemKind
	Idx  graph.ElemIdx
}

// Reduce strips annotations from the binding (§6.5) into a Reduced the
// caller owns.
func (b *PathBinding) Reduce() *Reduced {
	r := &Reduced{
		Cols:    make([]ReducedCol, len(b.Entries)),
		Tags:    slices.Clone(b.Tags),
		Path:    copyPath(b.Path, make([]graph.ElemIdx, len(b.Path.Nodes)+len(b.Path.Edges))),
		PathVar: b.PathVar,
		Src:     b.Src,
	}
	b.reduceCols(r.Cols)
	return r
}

// ReduceInto is Reduce into the arena's storage: the result lives until
// the arena is reset.
func (b *PathBinding) ReduceInto(a *Arena) *Reduced {
	r := a.reds.New()
	*r = Reduced{
		Cols:    a.cols.Take(len(b.Entries)),
		Tags:    a.tags.Take(len(b.Tags)),
		Path:    copyPath(b.Path, a.idxs.Take(len(b.Path.Nodes)+len(b.Path.Edges))),
		PathVar: b.PathVar,
		Src:     b.Src,
	}
	copy(r.Tags, b.Tags)
	b.reduceCols(r.Cols)
	return r
}

// reduceCols writes the reduced columns of the binding's entries to dst.
func (b *PathBinding) reduceCols(dst []ReducedCol) {
	for i, e := range b.Entries {
		dst[i] = ReducedCol{Var: ast.ReducedVar(e.Var), Kind: e.Kind, Idx: e.Idx}
	}
}

// Arena is chunked storage for reduced bindings: their structs, columns,
// tags and paths. Storage grows chunk by chunk and never moves (package
// chunk), so a binding handed out stays put while the arena grows. Its
// owner decides how long bindings live: a per-seed solver resets it
// before each seed, a consumer that keeps rows never does. The zero value
// is ready to use.
type Arena struct {
	reds chunk.Buf[Reduced]
	cols chunk.Buf[ReducedCol]
	tags chunk.Buf[Tag]
	idxs chunk.Buf[graph.ElemIdx]
}

// Reset hands the arena's storage out again; every binding it held is
// then invalid.
func (a *Arena) Reset() {
	a.reds.Reset()
	a.cols.Reset()
	a.tags.Reset()
	a.idxs.Reset()
}

// Clone copies r into the arena, its memoized CanonKey included.
func (a *Arena) Clone(r *Reduced) *Reduced {
	return r.copyTo(a.reds.New(), a.cols.Take(len(r.Cols)), a.tags.Take(len(r.Tags)), a.idxs.Take(len(r.Path.Nodes)+len(r.Path.Edges)))
}

// Clone returns a copy of r that owns its storage, its memoized CanonKey
// included.
func (r *Reduced) Clone() *Reduced {
	return r.copyTo(new(Reduced), make([]ReducedCol, len(r.Cols)), slices.Clone(r.Tags), make([]graph.ElemIdx, len(r.Path.Nodes)+len(r.Path.Edges)))
}

// copyTo copies r into c, its columns, tags and path into storage sized
// for them.
func (r *Reduced) copyTo(c *Reduced, cols []ReducedCol, tags []Tag, idxs []graph.ElemIdx) *Reduced {
	*c = *r
	c.Cols, c.Tags = cols, tags
	copy(cols, r.Cols)
	copy(tags, r.Tags)
	c.Path = copyPath(r.Path, idxs)
	return c
}

// Reverse turns the binding, which its caller must own, into that of the
// same match walked from its last node to its first: columns and path in
// reverse order; tags, path variable and view kept. A tail-seeded join
// step runs a pattern's mirror and flips each solution it keeps back with
// it.
func (r *Reduced) Reverse() {
	slices.Reverse(r.Cols)
	slices.Reverse(r.Path.Nodes)
	slices.Reverse(r.Path.Edges)
	r.canon = ""
}

// ColID materializes the element id of column i.
func (r *Reduced) ColID(i int) string {
	c := r.Cols[i]
	return ElemID(r.Src, c.Kind, c.Idx)
}

// RefID materializes the element id of a Ref issued by this binding.
func (r *Reduced) RefID(ref Ref) string { return ElemID(r.Src, ref.Kind, ref.Idx) }

// CanonKey returns the canonical textual identity of the reduced binding:
// the reduced column sequence, the multiset branch tags, and the matched
// path, all materialized to element ids. Its lexicographic order is the
// canonical row order (SortStable, selector choices, Eval's final sort),
// unchanged from the pre-interning string key — this is the one place a
// binding's ids are turned into strings, once per output row. The result
// is memoized; callers must not mutate the binding afterwards.
func (r *Reduced) CanonKey() string {
	if r.canon == "" {
		r.canon = r.computeCanonKey()
	}
	return r.canon
}

func (r *Reduced) computeCanonKey() string {
	var b strings.Builder
	for i, c := range r.Cols {
		b.WriteString(c.Var)
		b.WriteByte('=')
		b.WriteString(r.ColID(i))
		b.WriteByte(';')
	}
	b.WriteByte('#')
	for _, t := range r.Tags {
		fmt.Fprintf(&b, "%d.%d,", t.Union, t.Branch)
	}
	b.WriteByte('#')
	if r.Src != nil {
		r.Path.AppendKeyString(&b, r.Src)
	}
	return b.String()
}

// Keyer builds the compact binary deduplication keys of reduced bindings:
// varint-packed (variable code, kind, element index) triples, branch
// tags, and the interned path. Variable codes are assigned per Keyer, so
// keys from different Keyers must never be compared — one Keyer serves
// one dedup set (or one solver's sequence of per-seed sets, which is
// fine: codes only grow). The encoding is injective: every section is
// length-prefixed and varints are self-delimiting, so no two distinct
// bindings share a key (the property the adversarial-id suite pins).
type Keyer struct {
	vars map[string]uint64
	buf  []byte
}

// NewKeyer returns an empty Keyer.
func NewKeyer() *Keyer { return &Keyer{vars: map[string]uint64{}} }

// Key returns the binding's dedup key. The returned slice aliases the
// Keyer's scratch buffer and is valid until the next Key call; convert
// with string(...) to retain it.
func (k *Keyer) Key(r *Reduced) []byte {
	b := k.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(r.Cols)))
	for _, c := range r.Cols {
		code, ok := k.vars[c.Var]
		if !ok {
			code = uint64(len(k.vars))
			k.vars[c.Var] = code
		}
		b = binary.AppendUvarint(b, code)
		b = append(b, byte(c.Kind))
		b = binary.AppendUvarint(b, uint64(c.Idx))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Tags)))
	for _, t := range r.Tags {
		b = binary.AppendUvarint(b, uint64(t.Union))
		b = binary.AppendUvarint(b, uint64(t.Branch))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Path.Nodes)))
	for i, n := range r.Path.Nodes {
		if i > 0 {
			b = binary.AppendUvarint(b, uint64(r.Path.Edges[i-1]))
		}
		b = binary.AppendUvarint(b, uint64(n))
	}
	k.buf = b
	return b
}

// String renders the reduced binding as "var↦id" pairs.
func (r *Reduced) String() string {
	parts := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		parts[i] = c.Var + "↦" + r.ColID(i)
	}
	return strings.Join(parts, " ")
}

// HeaderRow and ValueRow render the two-row table presentation used
// throughout §6.4 of the paper.
func (r *Reduced) HeaderRow() []string {
	out := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		out[i] = c.Var
	}
	return out
}

// ValueRow returns the element ids in column order.
func (r *Reduced) ValueRow() []string {
	out := make([]string, len(r.Cols))
	for i := range r.Cols {
		out[i] = r.ColID(i)
	}
	return out
}

// Dedup collects reduced bindings into a set, keeping the first occurrence
// of each key and preserving order (§6.5). Keys are the compact binary
// form; no id strings are built.
func Dedup(in []*Reduced) []*Reduced {
	k := NewKeyer()
	seen := make(map[string]struct{}, len(in))
	out := make([]*Reduced, 0, len(in))
	for _, r := range in {
		key := k.Key(r)
		if _, ok := seen[string(key)]; ok {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// Singleton returns the element bound to a singleton variable, scanning the
// columns; ok is false when the variable is unbound (conditional singleton
// that did not bind).
func (r *Reduced) Singleton(v string) (Ref, bool) {
	for _, c := range r.Cols {
		if c.Var == v {
			return Ref{Kind: c.Kind, Idx: c.Idx}, true
		}
	}
	return Ref{}, false
}

// Group returns all elements bound to the variable in sequence order (the
// group list used by aggregates, §4.4).
func (r *Reduced) Group(v string) []Ref {
	var out []Ref
	for _, c := range r.Cols {
		if c.Var == v {
			out = append(out, Ref{Kind: c.Kind, Idx: c.Idx})
		}
	}
	return out
}

// Vars lists the distinct non-anonymous variables in column order.
func (r *Reduced) Vars() []string {
	seen := map[string]struct{}{}
	var out []string
	for _, c := range r.Cols {
		if c.Var == "□" || c.Var == "−" {
			continue
		}
		if _, ok := seen[c.Var]; ok {
			continue
		}
		seen[c.Var] = struct{}{}
		out = append(out, c.Var)
	}
	return out
}

// FormatTable renders reduced bindings as an aligned two-row-per-binding
// text table (header row of variables, value row of elements), matching the
// presentation of §6.4.
func FormatTable(bindings []*Reduced) string {
	var b strings.Builder
	for i, r := range bindings {
		if i > 0 {
			b.WriteByte('\n')
		}
		hdr := r.HeaderRow()
		val := r.ValueRow()
		widths := make([]int, len(hdr))
		for j := range hdr {
			widths[j] = max(len([]rune(hdr[j])), len([]rune(val[j])))
		}
		writeRow := func(cells []string) {
			for j, c := range cells {
				if j > 0 {
					b.WriteString(" | ")
				}
				b.WriteString(c)
				for pad := widths[j] - len([]rune(c)); pad > 0; pad-- {
					b.WriteByte(' ')
				}
			}
			b.WriteByte('\n')
		}
		writeRow(hdr)
		writeRow(val)
	}
	return b.String()
}

// SortStable orders reduced bindings by their canonical key; used to make
// non-deterministic selector choices reproducible and test output stable.
func SortStable(in []*Reduced) {
	sort.SliceStable(in, func(i, j int) bool {
		// Shorter paths first, then lexicographic key: gives the intuitive
		// "shortest, then canonical" order.
		if in[i].Path.Len() != in[j].Path.Len() {
			return in[i].Path.Len() < in[j].Path.Len()
		}
		return in[i].CanonKey() < in[j].CanonKey()
	})
}
