package taskgraph

import (
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
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
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

// AppendJSONString appends s as a JSON string the way json.Marshal does:
// '"' and '\\' backslash-escaped; \b, \f, \n, \r, \t by name; other
// control bytes and the HTML-sensitive '<', '>', '&' as \u00XX; U+2028
// and U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
