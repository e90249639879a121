package taskgraph

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Scanner reads JSON values from a string in one pass, without reflection,
// accepting only a strict subset of the grammar: exact-case known keys,
// each at most once per object; strings with no escape sequences, no
// control bytes and valid UTF-8; numbers in the JSON grammar, each read
// once (see float); integers with no fraction or exponent that fit an
// int. Inside that subset the values it yields are exactly what
// encoding/json decodes from the same bytes, and its strings are
// substrings of the source, so they cost no allocation.
//
// On anything outside the subset (an unknown or case-folded key, a
// duplicate, null, an escape, 4.0 for an int, 1e400, a truncated input)
// the scan fails: every later read returns a zero value and Failed
// reports true. The caller then decodes the same bytes with encoding/json,
// which stays the reference for every input the subset leaves out,
// including every error.
type Scanner struct {
	src    string
	pos    int
	failed bool
}

// NewScanner returns a Scanner positioned at the start of src.
func NewScanner(src string) Scanner { return Scanner{src: src} }

// Failed reports whether the scan met input outside the strict subset.
func (s *Scanner) Failed() bool { return s.failed }

// atEnd reports whether only whitespace is left: encoding/json's rule
// for the bytes after a complete top-level value of Unmarshal.
func (s *Scanner) atEnd() bool {
	s.skipSpace()
	return s.pos == len(s.src)
}

func (s *Scanner) fail() { s.failed = true }

// skipSpace advances past JSON whitespace.
func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and reports whether c comes next, reading it
// if so.
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Object reads the '{' opening an object.
func (s *Scanner) Object() bool {
	if s.failed || !s.consume('{') {
		s.fail()
		return false
	}
	return true
}

// Key reads the i-th key of the object being read (i counts from 0), and
// the colon after it, and returns the key's index in names. At the
// closing brace, which it reads, and on failure it returns -1. A key that
// is not in names (matched exact-case) or whose bit is already set in
// *seen fails the scan. Each name must be plain ASCII: no control byte,
// quote or backslash.
func (s *Scanner) Key(i int, names []string, seen *uint64) int {
	if s.failed {
		return -1
	}
	if s.consume('}') {
		return -1
	}
	if i > 0 && !s.consume(',') {
		s.fail()
		return -1
	}
	// Match the quoted key in place: as a name is plain ASCII, '"' + name
	// + '"' is the one string String would read as name.
	s.skipSpace()
	rest := s.src[s.pos:]
	for k, name := range names {
		if len(rest) > len(name)+1 && rest[0] == '"' && rest[len(name)+1] == '"' && rest[1:len(name)+1] == name {
			if *seen&(1<<k) != 0 {
				break
			}
			s.pos += len(name) + 2
			if !s.consume(':') {
				break
			}
			*seen |= 1 << k
			return k
		}
	}
	s.fail()
	return -1
}

// array reads the '[' opening an array.
func (s *Scanner) array() bool {
	if s.failed || !s.consume('[') {
		s.fail()
		return false
	}
	return true
}

// elem reports whether the array being read has an i-th element (i
// counts from 0), reading the comma before it. At the closing bracket,
// which it reads, and on failure it returns false.
func (s *Scanner) elem(i int) bool {
	if s.failed || s.consume(']') {
		return false
	}
	if i > 0 && !s.consume(',') {
		s.fail()
		return false
	}
	return true
}

// plainASCII marks the bytes a string may hold as they are: ASCII with
// no control byte, quote or backslash.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// String reads a string with no escape sequences and returns its
// contents, a substring of the source.
func (s *Scanner) String() string {
	if s.failed || !s.consume('"') {
		s.fail()
		return ""
	}
	src, i := s.src, s.pos
	for i < len(src) && plainASCII[src[i]] {
		i++
	}
	ascii := true
	if i < len(src) && src[i] >= utf8.RuneSelf {
		// Past a non-ASCII byte, find the closing quote and check the
		// whole string's UTF-8 there.
		ascii = false
		for i < len(src) && (plainASCII[src[i]] || src[i] >= utf8.RuneSelf) {
			i++
		}
	}
	if i < len(src) && src[i] == '"' {
		str := src[s.pos:i]
		if ascii || utf8.ValidString(str) {
			s.pos = i + 1
			return str
		}
	}
	s.fail()
	return ""
}

// number reads a number literal in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it with its
// decimal value, built in the same walk over its digits.
func (s *Scanner) number() (lit string, d decimal) {
	if s.failed {
		return "", d
	}
	s.skipSpace()
	src, i := s.src, s.pos
	neg := i < len(src) && src[i] == '-'
	if neg {
		i++
	}
	// nd counts the significant digits kept in man: a leading zero adds
	// nothing to the mantissa and is not counted, and past maxMantDigits a
	// digit only scales the integer part or is dropped from the fraction.
	var (
		man   uint64
		exp10 int
		nd    int
		trunc bool
	)
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && '1' <= src[i] && src[i] <= '9':
		for ; i < len(src); i++ {
			c := src[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				nd++
			} else {
				exp10++
				trunc = trunc || c != 0
			}
		}
	default:
		s.fail()
		return "", d
	}
	integer := true
	if i < len(src) && src[i] == '.' {
		integer = false
		i++
		start := i
		for ; i < len(src); i++ {
			c := src[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				man = man*10 + uint64(c)
				exp10--
				if man != 0 {
					nd++
				}
			} else {
				trunc = trunc || c != 0
			}
		}
		if i == start {
			s.fail()
			return "", d
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		integer = false
		i++
		eneg := false
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			eneg = src[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(src); i++ {
			c := src[i] - '0'
			if c > 9 {
				break
			}
			if e < expSaturation {
				e = e*10 + int(c)
			}
		}
		if i == start {
			s.fail()
			return "", d
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	lit = src[s.pos:i]
	s.pos = i
	return lit, decimal{man: man, exp10: exp10, neg: neg, integer: integer, trunc: trunc}
}

// float reads a number as encoding/json decodes it into a float64. The
// literal's value converts from its decimal by Clinger's exact path or by
// Eisel–Lemire; strconv.ParseFloat reads it again only when it has more
// than maxMantDigits significant digits, an exponent outside the powers
// table, or a value that conversion cannot settle (a subnormal, an
// overflow, a near-halfway product). Every value and every refusal is
// strconv's.
func (s *Scanner) float() float64 {
	lit, d := s.number()
	if s.failed {
		return 0
	}
	if !d.trunc {
		if f, ok := d.toFloat(); ok {
			return f
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		s.fail()
		return 0
	}
	return f
}

// Int reads an integer with no fraction or exponent that fits an int. Its
// digits are the decimal's mantissa; one with more than maxMantDigits
// digits leaves exp10 above zero, is at least 10^19 and fits no int.
func (s *Scanner) Int() int {
	_, d := s.number()
	limit := uint64(math.MaxInt)
	if d.neg {
		limit++
	}
	if s.failed || !d.integer || d.exp10 != 0 || d.man > limit {
		s.fail()
		return 0
	}
	n := int(d.man)
	if d.neg {
		n = -n
	}
	return n
}

// The keys of the wire form's objects, in the order their decoders switch
// on them: the JSON names tagged on Wire, WireSubtask and WireArc.
var (
	wireKeys    = []string{"subtasks", "arcs"}
	subtaskKeys = []string{"name", "cost", "release", "endToEnd", "pinned"}
	arcKeys     = []string{"from", "to", "size"}
)

// Wire reads a task graph's interchange form into the zero Wire w.
func (s *Scanner) Wire(w *Wire) {
	if !s.Object() {
		return
	}
	var seen uint64
	for i := 0; ; i++ {
		switch s.Key(i, wireKeys, &seen) {
		case -1:
			return
		case 0:
			w.Subtasks = s.subtasks()
		case 1:
			w.Arcs = s.arcs()
		}
	}
}

// maxLenHint bounds lenHint, so a hostile body cannot reserve a large
// list up front.
const maxLenHint = 1024

// lenHint estimates the length of the list of objects whose '[' was just
// read: the number of '{' before the next ']', at most maxLenHint. It is
// exact for a list of flat objects whose strings hold neither byte; it
// only sizes the slice, so a wrong estimate costs an append, never a
// wrong value.
func (s *Scanner) lenHint() int {
	rest := s.src[s.pos:]
	if end := strings.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(strings.Count(rest, "{"), maxLenHint)
}

// subtasks reads the subtask list. An empty list decodes to an empty,
// non-nil slice, as encoding/json leaves it.
func (s *Scanner) subtasks() []WireSubtask {
	if !s.array() {
		return nil
	}
	sts := make([]WireSubtask, 0, s.lenHint())
	for i := 0; s.elem(i); i++ {
		sts = append(sts, WireSubtask{})
		s.subtask(&sts[i])
	}
	return sts
}

func (s *Scanner) subtask(st *WireSubtask) {
	if !s.Object() {
		return
	}
	var seen uint64
	for i := 0; ; i++ {
		switch s.Key(i, subtaskKeys, &seen) {
		case -1:
			return
		case 0:
			st.Name = s.String()
		case 1:
			st.Cost = s.float()
		case 2:
			st.Release = s.float()
		case 3:
			st.EndToEnd = s.float()
		case 4:
			pinned := s.Int()
			st.Pinned = &pinned
		}
	}
}

// arcs reads the arc list, empty but non-nil like the subtask list.
func (s *Scanner) arcs() []WireArc {
	if !s.array() {
		return nil
	}
	arcs := make([]WireArc, 0, s.lenHint())
	for i := 0; s.elem(i); i++ {
		arcs = append(arcs, WireArc{})
		s.arc(&arcs[i])
	}
	return arcs
}

func (s *Scanner) arc(a *WireArc) {
	if !s.Object() {
		return
	}
	var seen uint64
	for i := 0; ; i++ {
		switch s.Key(i, arcKeys, &seen) {
		case -1:
			return
		case 0:
			a.From = s.String()
		case 1:
			a.To = s.String()
		case 2:
			a.Size = s.float()
		}
	}
}
