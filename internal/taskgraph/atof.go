package taskgraph

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// decimal is a number literal as Scanner.number reads it: the value
// (−1)^neg × man × 10^exp10, where man holds at most the literal's first
// maxMantDigits significant digits. It is the literal's exact value unless
// trunc is set.
type decimal struct {
	man   uint64
	exp10 int
	// neg is the literal's sign, kept apart so that -0 stays negative.
	neg bool
	// integer reports a literal with neither fraction nor exponent.
	integer bool
	// trunc reports that a nonzero digit past the first maxMantDigits
	// was dropped.
	trunc bool
}

// maxMantDigits is the number of significant digits a decimal keeps:
// 10^19 − 1 fits a uint64.
const maxMantDigits = 19

// expSaturation bounds a literal's explicit exponent, as strconv does:
// past it the value is ±0 or ±Inf whatever the digits, and the exponent
// cannot overflow an int.
const expSaturation = 10000

// exactPow10 holds the powers of ten that a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// toFloat converts an untruncated decimal to the nearest float64, ties to
// even, as strconv.ParseFloat does. It reports false when it cannot
// settle the value: the result would be subnormal, overflow, or lie too
// close to a halfway point, or exp10 is outside the powers table. The
// caller then asks strconv.
func (d decimal) toFloat() (float64, bool) {
	// Clinger's fast path: the mantissa and the power of ten are both
	// exact float64s, so one correctly rounded operation gives the value.
	if d.man>>53 == 0 && -len(exactPow10) < d.exp10 && d.exp10 < len(exactPow10) {
		f := float64(d.man)
		if d.neg {
			f = -f
		}
		if d.exp10 < 0 {
			return f / exactPow10[-d.exp10], true
		}
		return f * exactPow10[d.exp10], true
	}
	return eiselLemire(d.man, d.exp10, d.neg)
}

// The exponent range of pow10Table: every power of ten whose float64
// value is neither zero nor infinite for some 19-digit mantissa.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds, for each exp10 in [minPow10, maxPow10], the 128-bit
// mantissa of 10^exp10, normalised so its top bit is set and rounded
// down: entry [0] is the low 64 bits, [1] the high.
var pow10Table = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	var buf [16]byte
	put := func(e int, x *big.Int) {
		x.FillBytes(buf[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	p := big.NewInt(1) // 10^e
	ten := big.NewInt(10)
	var x big.Int
	for e := 0; e <= -minPow10; e++ {
		if e <= maxPow10 {
			// 10^e cut or widened to its top 128 bits.
			if shift := p.BitLen() - 128; shift > 0 {
				x.Rsh(p, uint(shift))
			} else {
				x.Lsh(p, uint(-shift))
			}
			put(e, &x)
		}
		if e > 0 {
			// 10^−e as ⌊2^(b+127) / 10^e⌋, where 10^e has b bits: the
			// quotient lies strictly between 2^127 and 2^128.
			x.Lsh(big.NewInt(1), uint(p.BitLen()+127))
			x.Quo(&x, p)
			put(-e, &x)
		}
		p.Mul(p, ten)
	}
	return t
}()

// eiselLemire converts man × 10^exp10 to the nearest float64 by the
// Eisel–Lemire method (Lemire, "Number Parsing at a Gigabyte per Second",
// 2021), following Go's strconv/eisel_lemire.go. It multiplies the
// normalised mantissa by the 128-bit approximation of 10^exp10 and reads
// the result's top 54 bits; when the bits below them cannot tell which
// way the truncated product rounds, it reports false.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table[exp10-minPow10]

	// Normalise man so its top bit is set; the float's biased binary
	// exponent is then about log2(10)·exp10 (217706/2^16 ≈ log2 10) plus
	// the product's 64 bits, less the shift.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	hi, lo := bits.Mul64(man, pow[1])
	// When the low 9 bits of hi are all ones and adding man to lo carries,
	// the truncated low half of the power may decide the rounding: widen
	// the product with it.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits: the product's top bit is bit 127 or bit 126.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// An exact product ending in binary ...01 followed by zeros is a tie
	// the truncation may have hidden.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half up: exact ties were refused above.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// A zero or wrapped exponent is subnormal; 0x7FF or more is infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
