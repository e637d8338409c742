package value

import (
	"fmt"
	"math"
)

// AggKind identifies an aggregate function over group variables (§4.4,
// §5.3 of the paper: SUM, COUNT, AVG, MIN, MAX over properties of group
// variables such as SUM(t.amount) across quantifier iterations).
type AggKind uint8

// The aggregate functions supported in postfilters and projections.
// AggListagg is the PGQL-style LISTAGG(x, sep) of §3, producing a
// separator-joined string of the group's values.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	AggListagg
)

// String returns the GPML spelling of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggListagg:
		return "LISTAGG"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(k))
	}
}

// ParseAggKind resolves an aggregate name (case-insensitive match is the
// caller's concern; pass upper case).
func ParseAggKind(name string) (AggKind, bool) {
	switch name {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "LISTAGG":
		return AggListagg, true
	default:
		return 0, false
	}
}

// Monotonic reports whether the aggregate is monotonic in the size of its
// input multiset (§5.3: "A few aggregates (MAX, MIN, COUNT) are monotonic").
func (k AggKind) Monotonic() bool {
	return k == AggCount || k == AggMin || k == AggMax
}

// Aggregate folds the aggregate over vs with SQL semantics: NULL inputs are
// skipped for SUM/AVG/MIN/MAX; COUNT counts non-NULL inputs; empty (or
// all-NULL) input yields COUNT=0 and NULL for the others.
func Aggregate(k AggKind, vs []Value) (Value, error) {
	switch k {
	case AggCount:
		n := int64(0)
		for _, v := range vs {
			if !v.IsNull() {
				n++
			}
		}
		return Int(n), nil
	case AggSum, AggAvg:
		var (
			sumI    int64
			sumF    float64
			asFloat bool
			n       int64
		)
		for _, v := range vs {
			if v.IsNull() {
				continue
			}
			switch v.Kind() {
			case KindInt:
				sumI += v.i
			case KindFloat:
				asFloat = true
				sumF += v.f
			default:
				return Null, fmt.Errorf("value: %s over non-numeric %s", k, v.Kind())
			}
			n++
		}
		if n == 0 {
			return Null, nil
		}
		total := Float(float64(sumI) + sumF)
		if !asFloat {
			total = Int(sumI)
		}
		if k == AggSum {
			return total, nil
		}
		tf, _ := total.AsFloat()
		return Float(tf / float64(n)), nil
	case AggMin, AggMax:
		best := Null
		for _, v := range vs {
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			c, ok := Compare(v, best)
			if !ok {
				return Null, fmt.Errorf("value: %s over incomparable kinds %s and %s", k, v.Kind(), best.Kind())
			}
			if (k == AggMin && c < 0) || (k == AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Null, fmt.Errorf("value: unknown aggregate %v", k)
	}
}

// ListAgg joins the non-NULL values' display forms with the separator
// (PGQL's LISTAGG, §3: "produces a comma-separated list of values encoded
// as a single string of characters").
func ListAgg(vs []Value, sep string) Value {
	parts := make([]string, 0, len(vs))
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		parts = append(parts, v.Display())
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return Str(out)
}

// CountDistinct counts distinct non-NULL values (COUNT(DISTINCT x)).
func CountDistinct(vs []Value) Value {
	n := 0
	for _, v := range Distinct(vs) {
		if !v.IsNull() {
			n++
		}
	}
	return Int(int64(n))
}

// Distinct returns the first occurrence of each value of vs, in order:
// the input of every DISTINCT aggregate. Two numbers are one value when
// they are equal, as with =, so int 1 and float 1.0 collapse, -0 is 0
// and every NaN is one NaN; ints are compared exactly, so distinct ints
// above 2^53 stay distinct.
func Distinct(vs []Value) []Value {
	seen := make(map[string]struct{}, len(vs))
	out := make([]Value, 0, len(vs))
	for _, v := range vs {
		k := v
		if f := v.f; v.kind == KindFloat && f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			k = Int(int64(f)) // an integral float keys as its int; -0 as 0
		}
		key := k.Key()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, v)
	}
	return out
}
