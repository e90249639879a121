package taskgraph

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// numberEdges are literals at the conversion's edges: signed zeros, the
// subnormal range and its boundary, the largest finite values and just
// past them, exact ties, mantissas longer than maxMantDigits, exponents
// outside the powers table, and integers at the edge of an int.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0e400", "-0e-400", "0.000e+999999",
	"1", "-1", "1.5", "0.1", "0.3", "100", "1e22", "1e23", "9.999999999999999e22",
	"5e-324", "-5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-324", "1e-323", "2.225073858507201e-308",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e-400", "-1e-400",
	"1e400", "1e99999999999999999999", "1e-99999999999999999999",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0", "-9007199254740993", "9007199254740993e-10",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"12345678901234567890", "1234567890123456789", "12345678901234567890000",
	"123456789012345678901234567890e-10", "0.10000000000000000000001",
	"0.1000000000000000000000", "0.00000000000000000000000000001234567890123456789",
	"18446744073709551615", "18446744073709551616", "99999999999999999999",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"-9223372036854775809", "1e19", "10000000000000000000",
	"7.2057594037927933e16", "3.0000000000000004", "0.30000000000000004",
	"123.456e-2", "1E+2", "1e-0", "-1.5e-310",
	// Outside the grammar: the scan refuses them.
	"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "--1", "0x10", "1_0", "NaN", "Inf",
}

// sameBits reports whether two float64s have the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkNumber is the number kernel's property: on src, the scan's float
// and Int read what encoding/json decodes into a float64 and an int, bit
// for bit, and refuse exactly where it refuses. A literal is in JSON's
// number grammar when encoding/json decodes it and it is not null, the
// one other spelling a float64 accepts; encoding/json parses the literal
// with strconv, so its value and its out-of-range refusals are strconv's.
func checkNumber(t *testing.T, src string) {
	t.Helper()
	sc := NewScanner(src)
	f := sc.float()
	got := !sc.Failed() && sc.atEnd()
	isNull := strings.Trim(src, " \t\r\n") == "null"
	var want float64
	wantOK := json.Unmarshal([]byte(src), &want) == nil && !isNull
	if got != wantOK || got && !sameBits(f, want) {
		t.Fatalf("float %q: scan %v (accepted %v), encoding/json %v (accepted %v)", src, f, got, want, wantOK)
	}
	sc = NewScanner(src)
	n := sc.Int()
	got = !sc.Failed() && sc.atEnd()
	var wantN int
	wantOK = json.Unmarshal([]byte(src), &wantN) == nil && !isNull
	if got != wantOK || got && n != wantN {
		t.Fatalf("int %q: scan %d (accepted %v), encoding/json %d (accepted %v)", src, n, got, wantN, wantOK)
	}
}

// randomLiteral spells a random 1–19-digit mantissa times 10^exp10, with
// its decimal point at a random place, so the value's exponent is exp10
// whatever the spelling.
func randomLiteral(r *rand.Rand, exp10 int) string {
	digits := []byte(strconv.FormatUint(r.Uint64N(9)+1, 10))
	for n := r.IntN(19); n > 0; n-- {
		digits = append(digits, byte('0'+r.IntN(10)))
	}
	var b strings.Builder
	if r.IntN(2) == 0 {
		b.WriteByte('-')
	}
	point := r.IntN(len(digits) + 1)
	if point == len(digits) {
		b.Write(digits)
	} else {
		// d.ddd form, or 0.ddd with the point before every digit.
		if point == 0 {
			b.WriteString("0")
		} else {
			b.Write(digits[:point])
		}
		b.WriteByte('.')
		b.Write(digits[point:])
	}
	b.WriteString("e")
	b.WriteString(strconv.Itoa(exp10 - (len(digits) - point)))
	return b.String()
}

// TestScanFloatMatchesStrconv runs the number property over the edge
// literals, random float64s in every spelling strconv and encoding/json
// write, and every exponent of the powers table with random mantissas.
func TestScanFloatMatchesStrconv(t *testing.T) {
	for _, lit := range numberEdges {
		checkNumber(t, lit)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, spelling := range []byte{'f', 'e', 'g'} {
			checkNumber(t, strconv.FormatFloat(f, spelling, -1, 64))
		}
		js, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		checkNumber(t, string(js))
		// Round to fewer digits, so short mantissas take Clinger's path.
		checkNumber(t, strconv.FormatFloat(f, 'e', r.IntN(17), 64))
	}
	for exp10 := minPow10; exp10 <= maxPow10; exp10++ {
		for i := 0; i < 40; i++ {
			checkNumber(t, randomLiteral(r, exp10))
		}
	}
}

// FuzzScanNumber runs the number property over arbitrary bytes.
func FuzzScanNumber(f *testing.F) {
	for _, lit := range numberEdges {
		f.Add(lit)
	}
	f.Add(" 1.5 ")
	f.Add("null")
	f.Add("1.5x")
	f.Fuzz(checkNumber)
}

// floatSink keeps BenchmarkScanFloat's result live.
var floatSink float64

// BenchmarkScanFloat times one literal's scan and conversion per op: a
// 17-digit value as json.Marshal writes a random float, a small integer,
// an exponent form, and a 20-digit mantissa, which strconv reads again.
func BenchmarkScanFloat(b *testing.B) {
	for _, bc := range []struct{ name, lit string }{
		{"17-digit", "123.45678901234567"},
		{"small-int", "42"},
		{"exponent", "6.02214076e23"},
		{"20-digit", "1.2345678901234567891"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := NewScanner(bc.lit)
				floatSink = sc.float()
			}
		})
	}
}
