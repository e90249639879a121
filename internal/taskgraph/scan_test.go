package taskgraph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// scanWire runs the strict scan alone and reports whether it accepted
// data as a whole document.
func scanWire(data []byte) (Wire, bool) {
	var w Wire
	sc := NewScanner(string(data))
	sc.Wire(&w)
	return w, sc.atEnd() && !sc.Failed()
}

// sameWire fails t unless a and b are equal values with equal canonical
// bytes (DeepEqual alone does not tell -0 from 0).
func sameWire(t *testing.T, input []byte, a, b Wire) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%q: scan %+v, encoding/json %+v", input, a, b)
	}
	ca, erra := a.AppendCanonical(nil)
	cb, errb := b.AppendCanonical(nil)
	if !bytes.Equal(ca, cb) || (erra == nil) != (errb == nil) {
		t.Fatalf("%q: canonical bytes %s (%v), encoding/json %s (%v)", input, ca, erra, cb, errb)
	}
}

// checkScanAgrees is the differential property: whenever the scan accepts
// an input, json.Unmarshal accepts it too and decodes the same Wire.
func checkScanAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := scanWire(data)
	if !ok {
		return false
	}
	var want Wire
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%q: scan accepted, encoding/json: %v", data, err)
	}
	sameWire(t, data, got, want)
	return true
}

// TestScanSubset pins which inputs take the strict scan and which fall
// back to encoding/json, and that Decode's result is encoding/json's
// either way, error message included.
func TestScanSubset(t *testing.T) {
	const g = `{"subtasks":[{"name":"a","cost":1},{"name":"b","cost":2.5,"endToEnd":9,"release":0.5,"pinned":1}],` +
		`"arcs":[{"from":"a","to":"b","size":3}]}`
	for _, tc := range []struct {
		in   string
		fast bool
	}{
		{g, true},
		{" \t\r\n" + g + " \n", true},
		{`{}`, true},
		{`{"subtasks":[],"arcs":[]}`, true},
		{`{"subtasks":[{"name":"é","cost":-0}]}`, true},
		{`{"subtasks":[{"name":"a","cost":1E+2,"release":-0.0e-0}]}`, true},
		{`{"subtasks":[{"name":"a","cost":1e-400}]}`, true},
		{`{"subtasks":[{"name":"a","cost":1,"pinned":-9223372036854775808}]}`, true},
		{"{\"subtasks\" :[] , \"arcs\"\n:\t[]}", true},                // space around keys
		{`{"subtasks":[{"name":"aéb","cost":1,"endToEnd":2}]}`, true}, // non-ASCII inside

		{g + `x`, false},                                            // trailing garbage
		{g + g, false},                                              // a second value
		{`{"Subtasks":[]}`, false},                                  // case-folded key
		{`{"subtasks":[],"subtasks":[]}`, false},                    // duplicate key
		{`{"subtasks":[{"name":"a","name":"b"}]}`, false},           // duplicate nested key
		{`{"nodes":[]}`, false},                                     // unknown key
		{`{"subtasks":null}`, false},                                // null
		{`{"subtasks":[{"name":null,"cost":1}]}`, false},            // null string
		{`{"subtasks":[{"name":"a\u0062","cost":1}]}`, false},       // escape
		{`{"subtasks":[{"name":"a\"","cost":1}]}`, false},           // escaped quote
		{"{\"subtasks\":[{\"name\":\"a\xff\",\"cost\":1}]}", false}, // invalid UTF-8
		{"{\"subtasks\":[{\"name\":\"a\tb\",\"cost\":1}]}", false},  // control byte
		{`{"subtasks":[{"name":"a","cost":1,"pinned":4.0}]}`, false},
		{`{"subtasks":[{"name":"a","cost":1,"pinned":1e2}]}`, false},
		{`{"subtasks":[{"name":"a","cost":1,"pinned":9223372036854775808}]}`, false},
		{`{"subtasks":[{"name":"a","cost":1e400}]}`, false},
		{`{"subtasks":[{"name":"a","cost":01}]}`, false},
		{`{"subtasks":[{"name":"a","cost":1.}]}`, false},
		{`{"subtasks":[{"name":"a","cost":.5}]}`, false},
		{`{"subtasks":[{"name":"a","cost":+1}]}`, false},
		{`{"subtasks":[{"name":"a","cost":"1"}]}`, false},
		{`{"subtasks":[{"name":"a","cost":1},]}`, false},
		{`{"subtasks":[{"name":"a","cost":1}],}`, false},
		{`{"subtasks":[{"name":"a","cost":1}]`, false}, // truncated
		{`{"subtasks":[{"name":"a","cost":1}`, false},
		{`{"subtasks":[{"name":"a`, false},
		{``, false},
		{`null`, false},
		{`[]`, false},

		// Keys match in place, and strings past a non-ASCII byte.
		{`{"subtasksx":[]}`, false},
		{`{"subtask":[]}`, false},
		{`{"arcs":[{"from":"a","to":"b","sizes":1}]}`, false},
		{`{"subtasks":[],"arcs"}`, false},
		{`{"subtasks"`, false},
		{"{\"subtasks\":[{\"name\":\"é\x01\",\"cost\":1}]}", false},
		{`{"subtasks":[{"name":"é\u0062","cost":1}]}`, false},
		{`{"subtasks":[{"name":"é`, false},
	} {
		if _, fast := scanWire([]byte(tc.in)); fast != tc.fast {
			t.Errorf("%q: scan accepted=%v, want %v", tc.in, fast, tc.fast)
		}
		checkScanAgrees(t, []byte(tc.in))
		got, gotErr := decodeWire([]byte(tc.in))
		var want Wire
		wantErr := json.Unmarshal([]byte(tc.in), &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%q: decode error %v, encoding/json %v", tc.in, gotErr, wantErr)
		}
		if gotErr == nil {
			sameWire(t, []byte(tc.in), got, want)
		}
	}
}

// TestScanNamesShareSource: the scan's strings are substrings of its
// source, so a decoded graph's names cost no allocation of their own.
func TestScanNamesShareSource(t *testing.T) {
	src := `{"subtasks":[{"name":"alpha","cost":1},{"name":"beta","cost":2}],"arcs":[{"from":"alpha","to":"beta","size":1}]}`
	var w Wire
	sc := NewScanner(src)
	allocs := testing.AllocsPerRun(20, func() {
		w = Wire{}
		sc = NewScanner(src)
		sc.Wire(&w)
	})
	if sc.Failed() {
		t.Fatal("scan failed")
	}
	// One allocation per non-empty list, nothing per string or number.
	if allocs > 3 {
		t.Errorf("scan: %.0f allocs", allocs)
	}
	if i := strings.Index(src, w.Arcs[0].To); i < 0 {
		t.Fatal("name not in source")
	}
}
