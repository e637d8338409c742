package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"gpml/internal/value"
)

// fuzzValue builds a property value from fuzzer-chosen parts: kind picks
// NULL, string, int, float or bool.
func fuzzValue(kind uint8, i int64, f float64, s string, b bool) value.Value {
	switch kind % 5 {
	case 1:
		return value.Str(s)
	case 2:
		return value.Int(i)
	case 3:
		return value.Float(f)
	case 4:
		return value.Bool(b)
	default:
		return value.Null
	}
}

// FuzzEqKey checks the exactness contract of the equality index: values
// value.Eq calls equal share a key, so a bucket lookup never misses a node
// the filter would pass, and NULL has no key.
func FuzzEqKey(f *testing.F) {
	const p53 = 1 << 53
	seeds := []value.Value{
		value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.NaN()), value.Float(-math.NaN()), value.Float(math.Inf(1)),
		value.Int(p53), value.Int(p53 + 1), value.Float(p53), value.Float(p53 + 1),
		value.Str(""), value.Bool(false), value.Bool(true), value.Null,
	}
	parts := func(v value.Value) (uint8, int64, float64, string, bool) {
		i, _ := v.AsInt()
		fl, _ := v.AsFloat()
		s, _ := v.AsString()
		b, _ := v.AsBool()
		return map[value.Kind]uint8{value.KindNull: 0, value.KindString: 1, value.KindInt: 2, value.KindFloat: 3, value.KindBool: 4}[v.Kind()], i, fl, s, b
	}
	for _, a := range seeds {
		for _, b := range seeds {
			ka, ia, fa, sa, ba := parts(a)
			kb, ib, fb, sb, bb := parts(b)
			f.Add(ka, ia, fa, sa, ba, kb, ib, fb, sb, bb)
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, ba bool, kb uint8, ib int64, fb float64, sb string, bb bool) {
		a, b := fuzzValue(ka, ia, fa, sa, ba), fuzzValue(kb, ib, fb, sb, bb)
		keyA, okA := keyOf(a)
		keyB, okB := keyOf(b)
		if okA == a.IsNull() || okB == b.IsNull() {
			t.Fatalf("keyOf(%v) ok=%v, keyOf(%v) ok=%v: only NULL is unkeyed", a, okA, b, okB)
		}
		if value.Eq(a, b) == value.True && keyA != keyB {
			t.Fatalf("%v = %v is TRUE but the keys differ: %+v vs %+v", a, b, keyA, keyB)
		}
	})
}

// TestEqIndexConcurrentBuilds: concurrent queries filtering on different
// pairs of one core each read exactly the nodes a filtered label scan
// keeps, in its order, and every pair is built once — the pair map and
// the per-pair build under contention.
func TestEqIndexConcurrentBuilds(t *testing.T) {
	g := New()
	for i := 0; i < 200; i++ {
		props := map[string]value.Value{"p": value.Int(int64(i % 7)), "q": value.Str(fmt.Sprint(i % 5))}
		if err := g.AddNode(NodeID(fmt.Sprint("n", i)), []string{"A", fmt.Sprint("L", i%3)}, props); err != nil {
			t.Fatal(err)
		}
	}
	c := Snapshot(g)
	pairs := [][2]string{{"A", "p"}, {"A", "q"}, {"L0", "p"}, {"L1", "q"}, {"L2", "p"}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				lp := pairs[(w+k)%len(pairs)]
				v := value.Float(float64(k % 7))
				if lp[1] == "q" {
					v = value.Str(fmt.Sprint(k % 5))
				}
				var got, want []int
				c.NodesWithLabelIdx(lp[0], func(i int) bool { got = append(got, i); return true }, PropEq{lp[1], v})
				c.NodesWithLabelIdx(lp[0], func(i int) bool {
					if value.Eq(c.NodeByIndex(i).Prop(lp[1]), v) == value.True {
						want = append(want, i)
					}
					return true
				})
				if !slices.Equal(got, want) || len(want) == 0 {
					t.Errorf("%v = %v: index %v, filtered scan %v", lp, v, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.eq.builds.Load(); n != int32(len(pairs)) {
		t.Errorf("%d index builds for %d pairs", n, len(pairs))
	}
}
