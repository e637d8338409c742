package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Errorf("Str accessor failed")
	}
	if i, ok := Int(7).AsInt(); !ok || i != 7 {
		t.Errorf("Int accessor failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("Float accessor failed")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Errorf("Int should convert AsFloat, got %v %v", f, ok)
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Errorf("Bool accessor failed")
	}
	if !Null.IsNull() {
		t.Errorf("Null must be null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Errorf("zero Value must be NULL")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Errorf("cross-kind accessor must fail")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Str("a'b"), "'a''b'"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
	if got := Str("hi").Display(); got != "hi" {
		t.Errorf("Display of string should be unquoted, got %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{Float(1.0), Int(1), 0, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Bool(false), Bool(true), -1, true},
		{Null, Int(1), 0, false},
		{Int(1), Null, 0, false},
		{Str("1"), Int(1), 0, false},
		{Bool(true), Int(1), 0, false},
		// NaN equals only NaN and orders above every other number.
		{Float(math.NaN()), Float(math.NaN()), 0, true},
		{Float(math.NaN()), Int(1), 1, true},
		{Float(math.Inf(1)), Float(math.NaN()), -1, true},
		{Float(math.Copysign(0, -1)), Int(0), 0, true},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v,%v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestLargeIntComparisonExact(t *testing.T) {
	// Values beyond float64's integer precision must compare exactly.
	a := Int(math.MaxInt64)
	b := Int(math.MaxInt64 - 1)
	if cmp, ok := Compare(a, b); !ok || cmp != 1 {
		t.Errorf("large int comparison lost precision: %d %v", cmp, ok)
	}
}

func TestThreeValuedComparisons(t *testing.T) {
	if Eq(Null, Null) != Unknown {
		t.Errorf("NULL = NULL must be UNKNOWN")
	}
	if Eq(Int(1), Int(1)) != True {
		t.Errorf("1 = 1 must be TRUE")
	}
	if Eq(Int(1), Str("1")) != False {
		t.Errorf("1 = '1' must be FALSE (comparable kinds mismatch)")
	}
	if Ne(Int(1), Int(2)) != True {
		t.Errorf("1 <> 2 must be TRUE")
	}
	if Lt(Null, Int(1)) != Unknown || Ge(Int(1), Null) != Unknown {
		t.Errorf("ordering with NULL must be UNKNOWN")
	}
	if Lt(Int(1), Int(2)) != True || Le(Int(2), Int(2)) != True ||
		Gt(Int(3), Int(2)) != True || Ge(Int(2), Int(3)) != False {
		t.Errorf("int orderings wrong")
	}
	if Lt(Str("a"), Bool(true)) != Unknown {
		t.Errorf("incomparable kinds must be UNKNOWN")
	}
}

func TestTriLogic(t *testing.T) {
	tris := []Tri{True, False, Unknown}
	// Kleene truth tables.
	for _, a := range tris {
		if a.And(False) != False || False.And(a) != False {
			t.Errorf("x AND FALSE must be FALSE")
		}
		if a.Or(True) != True || True.Or(a) != True {
			t.Errorf("x OR TRUE must be TRUE")
		}
	}
	if Unknown.And(True) != Unknown || Unknown.Or(False) != Unknown {
		t.Errorf("UNKNOWN propagation wrong")
	}
	if Unknown.Not() != Unknown || True.Not() != False || False.Not() != True {
		t.Errorf("NOT wrong")
	}
	if True.Xor(False) != True || True.Xor(True) != False || Unknown.Xor(True) != Unknown {
		t.Errorf("XOR wrong")
	}
	if !True.IsTrue() || False.IsTrue() || Unknown.IsTrue() {
		t.Errorf("IsTrue wrong")
	}
	if True.String() != "TRUE" || False.String() != "FALSE" || Unknown.String() != "UNKNOWN" {
		t.Errorf("Tri.String wrong")
	}
}

// De Morgan's laws hold in Kleene logic: NOT(a AND b) == NOT a OR NOT b.
func TestDeMorganProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		a, b := Tri(x%3), Tri(y%3)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Comparison trichotomy on random ints: exactly one of <,=,> holds.
func TestComparisonTrichotomyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		lt := Lt(Int(a), Int(b)) == True
		eq := Eq(Int(a), Int(b)) == True
		gt := Gt(Int(a), Int(b)) == True
		n := 0
		for _, x := range []bool{lt, eq, gt} {
			if x {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		got  func() (Value, error)
		want Value
	}{
		{"int add", func() (Value, error) { return Add(Int(2), Int(3)) }, Int(5)},
		{"int sub", func() (Value, error) { return Sub(Int(2), Int(3)) }, Int(-1)},
		{"int mul", func() (Value, error) { return Mul(Int(4), Int(3)) }, Int(12)},
		{"int div", func() (Value, error) { return Div(Int(7), Int(2)) }, Int(3)},
		{"int mod", func() (Value, error) { return Mod(Int(7), Int(2)) }, Int(1)},
		{"div by zero", func() (Value, error) { return Div(Int(7), Int(0)) }, Null},
		{"mod by zero", func() (Value, error) { return Mod(Int(7), Int(0)) }, Null},
		{"mixed add", func() (Value, error) { return Add(Int(1), Float(0.5)) }, Float(1.5)},
		{"float div", func() (Value, error) { return Div(Float(1), Float(4)) }, Float(0.25)},
		{"string concat", func() (Value, error) { return Add(Str("a"), Str("b")) }, Str("ab")},
		{"null add", func() (Value, error) { return Add(Null, Int(1)) }, Null},
	}
	for _, c := range cases {
		got, err := c.got()
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if !Identical(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Errorf("string+int must error")
	}
	if v, err := Neg(Int(3)); err != nil || !Identical(v, Int(-3)) {
		t.Errorf("Neg int: %v %v", v, err)
	}
	if v, err := Neg(Float(2.5)); err != nil || !Identical(v, Float(-2.5)) {
		t.Errorf("Neg float: %v %v", v, err)
	}
	if _, err := Neg(Str("x")); err == nil {
		t.Errorf("Neg string must error")
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Errorf("Neg NULL must be NULL")
	}
}

func TestIdenticalAndKey(t *testing.T) {
	pairs := []struct {
		a, b Value
		same bool
	}{
		{Null, Null, true},
		{Int(1), Int(1), true},
		{Int(1), Float(1), false}, // identity is kind-sensitive
		{Str("a"), Str("a"), true},
		{Bool(true), Bool(false), false},
		{Float(math.NaN()), Float(math.NaN()), true},
	}
	for _, p := range pairs {
		if Identical(p.a, p.b) != p.same {
			t.Errorf("Identical(%v,%v) != %v", p.a, p.b, p.same)
		}
		if p.same && p.a.Key() != p.b.Key() {
			t.Errorf("identical values must share keys: %v %v", p.a, p.b)
		}
	}
	// Keys are injective across kinds for equal payload renderings.
	if Int(1).Key() == Str("1").Key() {
		t.Errorf("keys must be kind-tagged")
	}
	if Int(1).Key() == Float(1).Key() {
		t.Errorf("int and float keys must differ")
	}
}

func TestAggregates(t *testing.T) {
	vals := []Value{Int(1), Int(2), Null, Int(3)}
	check := func(k AggKind, want Value) {
		t.Helper()
		got, err := Aggregate(k, vals)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !Identical(got, want) {
			t.Errorf("%v = %v, want %v", k, got, want)
		}
	}
	check(AggCount, Int(3)) // NULLs not counted
	check(AggSum, Int(6))
	check(AggAvg, Float(2))
	check(AggMin, Int(1))
	check(AggMax, Int(3))

	empty, err := Aggregate(AggSum, nil)
	if err != nil || !empty.IsNull() {
		t.Errorf("SUM of empty must be NULL, got %v %v", empty, err)
	}
	cnt, err := Aggregate(AggCount, nil)
	if err != nil || !Identical(cnt, Int(0)) {
		t.Errorf("COUNT of empty must be 0")
	}
	if _, err := Aggregate(AggSum, []Value{Str("x")}); err == nil {
		t.Errorf("SUM over strings must error")
	}
	mixed, err := Aggregate(AggSum, []Value{Int(1), Float(0.5)})
	if err != nil || !Identical(mixed, Float(1.5)) {
		t.Errorf("mixed SUM: %v %v", mixed, err)
	}
	if got, _ := Aggregate(AggMin, []Value{Str("b"), Str("a")}); !Identical(got, Str("a")) {
		t.Errorf("MIN over strings: %v", got)
	}
	if _, err := Aggregate(AggMax, []Value{Int(1), Str("a")}); err == nil {
		t.Errorf("MAX over incomparable kinds must error")
	}
	if got := CountDistinct([]Value{Int(1), Int(1), Int(2), Null}); !Identical(got, Int(2)) {
		t.Errorf("CountDistinct: %v", got)
	}
}

// Distinct keys numbers by exact value: int 1 and float 1.0, 0 and -0,
// and any two NaNs collapse (first occurrence kept), while ints above 2^53
// that one float64 cannot tell apart stay distinct.
func TestDistinctKeysNumbersByValue(t *testing.T) {
	const big = 1 << 53
	in := []Value{Int(1), Float(1), Int(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(-math.NaN()),
		Int(big + 1), Int(big), Float(big), Float(0.5), Float(math.Inf(1)), Str("1"), Null, Null}
	want := []Value{Int(1), Int(0), Float(math.NaN()), Int(big + 1), Int(big), Float(0.5), Float(math.Inf(1)), Str("1"), Null}
	got := Distinct(in)
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v, want %v", got, want)
	}
	for i := range want {
		if !Identical(got[i], want[i]) {
			t.Errorf("Distinct[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if c := CountDistinct(in); !Identical(c, Int(int64(len(want)-1))) {
		t.Errorf("CountDistinct = %v, want %d", c, len(want)-1)
	}
}

func TestAggKindHelpers(t *testing.T) {
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		k, ok := ParseAggKind(name)
		if !ok || k.String() != name {
			t.Errorf("ParseAggKind(%s) roundtrip failed", name)
		}
	}
	if _, ok := ParseAggKind("MEDIAN"); ok {
		t.Errorf("unknown aggregate must not parse")
	}
	// §5.3: MAX, MIN, COUNT are monotonic; SUM and AVG are not.
	if !AggCount.Monotonic() || !AggMin.Monotonic() || !AggMax.Monotonic() {
		t.Errorf("COUNT/MIN/MAX must be monotonic")
	}
	if AggSum.Monotonic() || AggAvg.Monotonic() {
		t.Errorf("SUM/AVG must not be monotonic")
	}
}

// SUM is order-independent (property).
func TestSumPermutationProperty(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = Int(x % 1_000_000) // avoid overflow noise
		}
		fwd, err1 := Aggregate(AggSum, vals)
		rev := make([]Value, len(vals))
		for i := range vals {
			rev[i] = vals[len(vals)-1-i]
		}
		bwd, err2 := Aggregate(AggSum, rev)
		if err1 != nil || err2 != nil {
			return false
		}
		return Identical(fwd, bwd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
