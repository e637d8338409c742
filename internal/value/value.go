// Package value implements the property value system of GPML: a closed
// tagged union of strings, 64-bit integers, 64-bit floats and booleans,
// extended with NULL, together with SQL-style comparison semantics and
// Kleene three-valued logic (TRUE / FALSE / UNKNOWN).
//
// GPML inherits its expression semantics from SQL (the paper, Section 4:
// "The WHERE clause can support a host of search conditions, and these may
// be combined into logical statements using AND, OR, and NOT"). Any
// comparison involving NULL is UNKNOWN, and UNKNOWN propagates through the
// connectives per Kleene logic. A pattern filter passes only when its
// condition evaluates to TRUE.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

// The kinds of values.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the kind name used in error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable property value. The zero Value is NULL.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Null is the NULL value (also the zero Value).
var Null = Value{}

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsString returns the string payload; ok is false for non-strings.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsInt returns the integer payload; ok is false for non-ints.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the float payload, converting ints; ok is false otherwise.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsBool returns the boolean payload; ok is false for non-bools.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// String renders the value in GPML literal syntax (strings single-quoted).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Display renders the value for table output (strings unquoted).
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// numeric reports whether the value is an int or float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Tri is a three-valued logic truth value.
type Tri uint8

// The three truth values of Kleene logic.
const (
	False Tri = iota
	True
	Unknown
)

// String returns TRUE, FALSE or UNKNOWN.
func (t Tri) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// TriOf converts a Go bool to a Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And is Kleene conjunction.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or is Kleene disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not is Kleene negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Xor is Kleene exclusive-or (UNKNOWN if either side is UNKNOWN).
func (t Tri) Xor(o Tri) Tri {
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return TriOf((t == True) != (o == True))
}

// IsTrue reports whether t is definitely TRUE (filters pass only then).
func (t Tri) IsTrue() bool { return t == True }

// Compare compares two values with SQL semantics. It returns (ordering,
// comparable): if either value is NULL or the kinds are incomparable,
// comparable is false (the comparison is UNKNOWN). Numeric kinds compare
// cross-kind (int vs float); strings compare lexicographically; booleans
// order false < true.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.numeric() && b.numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		// Exact int comparison when both are ints avoids float rounding.
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			default:
				return 0, true
			}
		}
		// NaN equals NaN and orders above every other number, so the
		// comparison stays a total order and NaN = x is TRUE only for a NaN.
		switch an, bn := af != af, bf != bf; {
		case an || bn:
			return cmpBool(an, bn), true
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), true
	case KindBool:
		return cmpBool(a.b, b.b), true
	default:
		return 0, false
	}
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	default:
		return 0
	}
}

// Eq is three-valued equality.
func Eq(a, b Value) Tri {
	c, ok := Compare(a, b)
	if !ok {
		if a.IsNull() || b.IsNull() {
			return Unknown
		}
		return False // comparable kinds mismatch: definitely unequal
	}
	return TriOf(c == 0)
}

// Ne is three-valued inequality.
func Ne(a, b Value) Tri { return Eq(a, b).Not() }

// Lt, Le, Gt, Ge are the three-valued ordering comparisons. Incomparable
// kinds yield UNKNOWN.
func Lt(a, b Value) Tri { return ord(a, b, func(c int) bool { return c < 0 }) }

// Le is three-valued <=.
func Le(a, b Value) Tri { return ord(a, b, func(c int) bool { return c <= 0 }) }

// Gt is three-valued >.
func Gt(a, b Value) Tri { return ord(a, b, func(c int) bool { return c > 0 }) }

// Ge is three-valued >=.
func Ge(a, b Value) Tri { return ord(a, b, func(c int) bool { return c >= 0 }) }

func ord(a, b Value, f func(int) bool) Tri {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return TriOf(f(c))
}

// Identical reports strict value identity (kind and payload), with
// NULL identical to NULL. It is the equality used for deduplication and
// grouping, not for WHERE predicates.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindString:
		return a.s == b.s
	case KindInt:
		return a.i == b.i
	case KindFloat:
		return a.f == b.f || (math.IsNaN(a.f) && math.IsNaN(b.f))
	case KindBool:
		return a.b == b.b
	default:
		return false
	}
}

// Key returns a canonical string key for grouping/dedup (injective per kind).
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindString:
		return "s" + v.s
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.f, 'x', -1, 64)
	case KindBool:
		if v.b {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
}

// Add returns a+b with numeric promotion, or string concatenation for two
// strings. NULL operands yield NULL; kind mismatches yield an error.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns a-b with numeric promotion.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns a*b with numeric promotion.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns a/b with numeric promotion. Integer division truncates;
// division by zero yields NULL (SQL engines raise; GPML filters treat the
// row as not passing, which NULL achieves).
func Div(a, b Value) (Value, error) { return arith(a, b, "/") }

// Mod returns a%b for integers.
func Mod(a, b Value) (Value, error) { return arith(a, b, "%") }

func arith(a, b Value, op string) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == "+" && a.kind == KindString && b.kind == KindString {
		return Str(a.s + b.s), nil
	}
	if !a.numeric() || !b.numeric() {
		return Null, fmt.Errorf("value: cannot apply %q to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case "+":
			return Int(x + y), nil
		case "-":
			return Int(x - y), nil
		case "*":
			return Int(x * y), nil
		case "/":
			if y == 0 {
				return Null, nil
			}
			return Int(x / y), nil
		case "%":
			if y == 0 {
				return Null, nil
			}
			return Int(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "/":
		if y == 0 {
			return Null, nil
		}
		return Float(x / y), nil
	case "%":
		return Float(math.Mod(x, y)), nil
	}
	return Null, fmt.Errorf("value: unknown operator %q", op)
}

// Neg returns -a for numeric a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.f), nil
	default:
		return Null, fmt.Errorf("value: cannot negate %s", a.kind)
	}
}
