package taskgraph

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendCanonical appends the canonical JSON encoding of the graph w
// builds to dst: byte for byte what json.Marshal writes for that Graph,
// computed from the wire form alone. A content-addressed cache can
// therefore key a request before (or instead of) building its graph.
//
// The encoding is encoding/json's, reproduced without reflection: field
// order and omitempty as tagged on WireSubtask/WireArc, null for an empty
// list, floats in encoding/json's ES6 form, and strings escaped with its
// HTML-safe rules. Build's graph-level renaming is applied too: an empty
// subtask name encodes as "t<index>", and so does an arc endpoint naming
// it. Like json.Marshal, it fails on a NaN or infinite number.
//
// Canonical bytes determine the graph. Take two wires with valid UTF-8
// strings (as every wire decoded from JSON has) and equal canonical bytes:
// Build accepts both or neither, and builds the same graph from both. (A
// second unnamed subtask, which Build refuses, encodes as "" rather than
// a generated name, so no refused wire shares an accepted one's bytes.)
func (w *Wire) AppendCanonical(dst []byte) ([]byte, error) {
	var err error
	// anon is the index of the first unnamed subtask: the one an empty arc
	// endpoint resolves to, and the only one with a generated name (Build
	// rejects a second one as a duplicate).
	anon := -1
	dst = append(dst, `{"subtasks":`...)
	if len(w.Subtasks) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range w.Subtasks {
			st := &w.Subtasks[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			if st.Name == "" && anon < 0 {
				anon = i
				dst = appendGeneratedName(dst, i)
			} else {
				dst = AppendJSONString(dst, st.Name)
			}
			dst = append(dst, `,"cost":`...)
			if dst, err = AppendJSONFloat(dst, st.Cost); err != nil {
				return nil, err
			}
			if st.Release != 0 {
				dst = append(dst, `,"release":`...)
				if dst, err = AppendJSONFloat(dst, st.Release); err != nil {
					return nil, err
				}
			}
			if st.EndToEnd != 0 {
				dst = append(dst, `,"endToEnd":`...)
				if dst, err = AppendJSONFloat(dst, st.EndToEnd); err != nil {
					return nil, err
				}
			}
			if st.Pinned != nil {
				dst = append(dst, `,"pinned":`...)
				dst = strconv.AppendInt(dst, int64(*st.Pinned), 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"arcs":`...)
	if len(w.Arcs) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range w.Arcs {
			a := &w.Arcs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = appendEndpoint(dst, a.From, anon)
			dst = append(dst, `,"to":`...)
			dst = appendEndpoint(dst, a.To, anon)
			dst = append(dst, `,"size":`...)
			if dst, err = AppendJSONFloat(dst, a.Size); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// Presence bits of AppendKey's per-subtask flag byte: the fields the
// canonical bytes write only when set.
const (
	keyRelease = 1 << iota
	keyEndToEnd
	keyPinned
)

// AppendKey appends a binary key of the graph w builds to dst: two wires
// have equal keys exactly when they have equal canonical bytes
// (AppendCanonical), so a content-addressed cache may hash either. The
// key costs no float formatting, which is most of what the canonical text
// costs to write.
//
// The key frames the values the canonical bytes are a function of, and
// nothing else:
//   - each list is a uvarint count, so a nil and an empty list, both
//     written as null, share a key;
//   - each name is a uvarint length and then its AppendJSONString bytes
//     (or the generated "t<index>", which an empty arc endpoint resolves
//     to), so two invalid UTF-8 bytes that both write as \ufffd share it;
//   - cost and size are their math.Float64bits, which tell -0 from 0 as
//     the shortest decimal form does;
//   - one byte flags which of release, endToEnd and pinned are present,
//     by the canonical bytes' omitempty rules (a -0 release is omitted,
//     a pinned 0 is not), and the present values follow.
//
// Every part is self-delimiting, so equal keys hold equal values in equal
// order, and the canonical bytes are written from exactly these values.
// Like AppendCanonical, it fails on a NaN or infinite number, with the
// same error.
func (w *Wire) AppendKey(dst []byte) ([]byte, error) {
	var err error
	anon := -1
	dst = binary.AppendUvarint(dst, uint64(len(w.Subtasks)))
	for i := range w.Subtasks {
		st := &w.Subtasks[i]
		if st.Name == "" && anon < 0 {
			anon = i
			dst = appendKeyName(dst, "", i)
		} else {
			dst = appendKeyName(dst, st.Name, -1)
		}
		var flags byte
		if st.Release != 0 {
			flags |= keyRelease
		}
		if st.EndToEnd != 0 {
			flags |= keyEndToEnd
		}
		if st.Pinned != nil {
			flags |= keyPinned
		}
		if dst, err = appendKeyFloat(dst, st.Cost); err != nil {
			return nil, err
		}
		dst = append(dst, flags)
		if flags&keyRelease != 0 {
			if dst, err = appendKeyFloat(dst, st.Release); err != nil {
				return nil, err
			}
		}
		if flags&keyEndToEnd != 0 {
			if dst, err = appendKeyFloat(dst, st.EndToEnd); err != nil {
				return nil, err
			}
		}
		if flags&keyPinned != 0 {
			dst = binary.AppendVarint(dst, int64(*st.Pinned))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.Arcs)))
	for i := range w.Arcs {
		a := &w.Arcs[i]
		dst = appendKeyEndpoint(dst, a.From, anon)
		dst = appendKeyEndpoint(dst, a.To, anon)
		if dst, err = appendKeyFloat(dst, a.Size); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendKeyName appends a name's key framing: the uvarint length of its
// canonical bytes, then those bytes. The canonical bytes are name's
// AppendJSONString, or the generated name of subtask gen when gen >= 0.
// They are written first, behind a one-byte length that a name of 128
// bytes or more widens by shifting them.
func appendKeyName(dst []byte, name string, gen int) []byte {
	at := len(dst)
	dst = append(dst, 0)
	if gen >= 0 {
		dst = appendGeneratedName(dst, gen)
	} else {
		dst = AppendJSONString(dst, name)
	}
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var lb [binary.MaxVarintLen64]byte
	l := binary.PutUvarint(lb[:], uint64(n))
	dst = append(dst, lb[1:l]...)
	copy(dst[at+l:], dst[at+1:at+1+n])
	copy(dst[at:], lb[:l])
	return dst
}

// appendKeyEndpoint appends an arc endpoint's key framing, resolving the
// empty name as appendEndpoint does.
func appendKeyEndpoint(dst []byte, name string, anon int) []byte {
	if name == "" && anon >= 0 {
		return appendKeyName(dst, "", anon)
	}
	return appendKeyName(dst, name, -1)
}

// appendKeyFloat appends f's bits, little-endian, refusing what
// AppendJSONFloat refuses with the same error.
func appendKeyFloat(dst []byte, f float64) ([]byte, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), nil
}

// checkFinite returns json.Marshal's error for a NaN or infinite f.
func checkFinite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// appendGeneratedName appends the quoted name AddSubtask gives the
// unnamed subtask at index i.
func appendGeneratedName(dst []byte, i int) []byte {
	dst = append(dst, `"t`...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	return append(dst, '"')
}

// appendEndpoint appends an arc endpoint name, resolving the empty name to
// the generated name of the unnamed subtask it refers to.
func appendEndpoint(dst []byte, name string, anon int) []byte {
	if name == "" && anon >= 0 {
		return appendGeneratedName(dst, anon)
	}
	return AppendJSONString(dst, name)
}

// AppendJSONFloat appends f as encoding/json encodes a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped (1e-07 becomes 1e-7). Like json.Marshal,
// it fails on NaN and infinities with a *json.UnsupportedValueError.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the bytes AppendJSONString writes as they are: ASCII
// with no control byte, quote, backslash, or HTML-sensitive '<', '>' or
// '&'.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string the way json.Marshal does:
// '"' and '\\' backslash-escaped; \b, \f, \n, \r, \t by name; other
// control bytes and the HTML-sensitive '<', '>', '&' as \u00XX; U+2028
// and U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as \ufffd.
// A string of plain bytes only is copied in one append.
func AppendJSONString(dst []byte, s string) []byte {
	i := 0
	for i < len(s) && jsonPlain[s[i]] {
		i++
	}
	dst = append(dst, '"')
	if i == len(s) {
		dst = append(dst, s...)
		return append(dst, '"')
	}
	start := 0
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
