package graph

import (
	"math"
	"sync"
	"sync/atomic"

	"gpml/internal/value"
)

// PropEq narrows a label scan to the nodes whose property Prop is equal
// (value.Eq TRUE) to Val: the element-pattern filter (x:L WHERE x.p = $v)
// answered from an index instead of by evaluating the WHERE on every L
// node.
type PropEq struct {
	Prop string
	Val  value.Value
}

// eqKey is the index key of a non-NULL value: values that value.Eq calls
// equal share a key. Ints and floats are keyed by their float64 value, so
// int 1 and float 1.0 collide; -0 is keyed as +0 and every NaN as one NaN.
// Distinct ints above 2^53 may share a key too, so a bucket can hold a few
// nodes the filter rejects: candidates are always re-checked.
type eqKey struct {
	kind value.Kind
	s    string
	n    uint64
}

// canonicalNaN is the bit pattern every NaN is keyed by.
var canonicalNaN = math.Float64bits(math.NaN())

// keyOf returns the index key of v, or false for NULL, which is never
// indexed: x.p = NULL is never TRUE.
func keyOf(v value.Value) (eqKey, bool) {
	switch v.Kind() {
	case value.KindString:
		s, _ := v.AsString()
		return eqKey{kind: value.KindString, s: s}, true
	case value.KindInt, value.KindFloat:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // -0 == +0
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = canonicalNaN
		}
		return eqKey{kind: value.KindFloat, n: bits}, true
	case value.KindBool:
		b, _ := v.AsBool()
		k := eqKey{kind: value.KindBool}
		if b {
			k.n = 1
		}
		return k, true
	default:
		return eqKey{}, false
	}
}

// eqIndex holds a core's equality indexes, one per (label, property) pair
// a query has filtered on, each built by one pass over the label's nodes
// the first time it is asked for: building, recovering and writing to a
// store never pay for an index no query reads. Overlay epochs read their
// base core's indexes. Once a pair is built, a lookup is a sync.Map load
// and an atomic check of the pair's Once: no lock.
type eqIndex struct {
	pairs  sync.Map     // [2]string{label, prop} → *eqBuckets
	builds atomic.Int32 // index passes, for tests
}

// eqBuckets is the equality index of one (label, property) pair: the
// label's nodes with a non-NULL value of the property, grouped by key.
// Bucket b is idx[off[b]:off[b+1]], ascending.
type eqBuckets struct {
	once sync.Once
	ids  map[eqKey]int32
	off  []int32
	idx  []int32
}

// buckets returns the (label, property) index, building it on first use.
func (c *elemCore) buckets(label, prop string) *eqBuckets {
	key := [2]string{label, prop}
	v, ok := c.eq.pairs.Load(key)
	if !ok {
		v, _ = c.eq.pairs.LoadOrStore(key, &eqBuckets{})
	}
	b := v.(*eqBuckets)
	b.once.Do(func() { b.build(c, label, prop) })
	return b
}

// build groups the label's nodes by key in two passes: count per key in
// first-seen order, then place each node at its bucket's cursor, so every
// bucket lists its nodes in label-scan order.
func (b *eqBuckets) build(c *elemCore, label, prop string) {
	nodes := c.labelNodes[label]
	b.ids = map[eqKey]int32{}
	slot := make([]int32, len(nodes)) // node's bucket, -1 when unindexed
	var counts []int32
	for j, i := range nodes {
		k, ok := keyOf(c.nodes[i].Props[prop])
		if !ok {
			slot[j] = -1
			continue
		}
		id, seen := b.ids[k]
		if !seen {
			id = int32(len(counts))
			b.ids[k] = id
			counts = append(counts, 0)
		}
		counts[id]++
		slot[j] = id
	}
	b.off = make([]int32, len(counts)+1)
	for id, n := range counts {
		b.off[id+1] = b.off[id] + n
	}
	b.idx = make([]int32, b.off[len(counts)])
	cur := append([]int32(nil), b.off[:len(counts)]...)
	for j, id := range slot {
		if id >= 0 {
			b.idx[cur[id]] = nodes[j]
			cur[id]++
		}
	}
	c.eq.builds.Add(1)
}

// bucket returns the ascending indices of the nodes whose key is v's;
// none for NULL.
func (b *eqBuckets) bucket(v value.Value) []int32 {
	k, ok := keyOf(v)
	if !ok {
		return nil
	}
	id, ok := b.ids[k]
	if !ok {
		return nil
	}
	return b.idx[b.off[id]:b.off[id+1]]
}

// labelIdx returns the ascending node indices a label scan narrowed by eq
// visits: the label's inverted list, or the smallest of the filters'
// buckets (each a subset of it).
func (c *elemCore) labelIdx(label string, eq []PropEq) []int32 {
	list := c.labelNodes[label]
	for k, e := range eq {
		if b := c.buckets(label, e.Prop).bucket(e.Val); k == 0 || len(b) < len(list) {
			list = b
		}
	}
	return list
}

// propNDV counts the distinct values (up to value.Eq) of a property over
// the live nodes carrying a label: the bucket count of its index.
func (c *elemCore) propNDV(label, prop string) int { return len(c.buckets(label, prop).ids) }
