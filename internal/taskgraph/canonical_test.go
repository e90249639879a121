package taskgraph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// canonicalSeeds cover the corners where a hand-written encoder could
// drift from encoding/json: generated names colliding with given ones,
// omitempty fields, number formats, string escaping, and the decoder's
// case-insensitive and duplicate keys.
var canonicalSeeds = []string{
	`{"subtasks":[{"name":"","cost":1},{"name":"t0","cost":2,"endToEnd":9}],"arcs":[{"from":"","to":"t0","size":1}]}`,
	`{"subtasks":[{"name":"t1","cost":1},{"name":"","cost":2,"endToEnd":9}],"arcs":[{"from":"t1","to":"","size":1}]}`,
	`{"subtasks":[{"name":"","cost":1},{"name":"","cost":2}],"arcs":[]}`,
	`{"subtasks":[{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}],"arcs":[{"from":"t0","to":"b","size":1}]}`,
	`{"subtasks":[{"name":"a","cost":1,"pinned":0,"release":2},{"name":"b","cost":2,"endToEnd":9,"pinned":3}],"arcs":[{"from":"a","to":"b","size":0}]}`,
	`{"subtasks":[{"name":"a","cost":1,"release":-0,"endToEnd":-0,"pinned":null}],"arcs":null}`,
	`{"subtasks":[{"name":"a","cost":1e-7},{"name":"b","cost":1e21,"endToEnd":1.0}],"arcs":[{"from":"a","to":"b","size":-0}]}`,
	`{"subtasks":[{"name":"a","cost":-0},{"name":"b","cost":1.0,"endToEnd":1e-6}],"arcs":[{"from":"a","to":"b","size":123456789012345678901234}]}`,
	`{"subtasks":[{"name":"a","cost":0.000001},{"name":"b","cost":1E+2,"endToEnd":5e-324}],"arcs":[{"from":"a","to":"b","size":1.7976931348623157e308}]}`,
	`{"subtasks":[{"name":"<a>&\"\\","cost":1},{"name":"x\u2028y\u2029z","cost":1,"endToEnd":3}],"arcs":[{"from":"<a>&\"\\","to":"x\u2028y\u2029z","size":1}]}`,
	`{"subtasks":[{"name":"\u0000\b\f\n\r\t\u001f\u007f","cost":1}],"arcs":[]}`,
	"{\"subtasks\":[{\"name\":\"bad\xff\xfeutf8\",\"cost\":1},{\"name\":\"ok\xc3\xa9\",\"cost\":1,\"endToEnd\":4}],\"arcs\":[{\"from\":\"bad\xff\xfeutf8\",\"to\":\"ok\xc3\xa9\",\"size\":1}]}",
	`{"Subtasks":[{"NAME":"a","Cost":1},{"Name":"b","COST":2,"EndToEnd":7}],"ARCS":[{"From":"a","TO":"b","Size":1}]}`,
	`{"subtasks":[{"name":"a","cost":1,"cost":2}],"subtasks":[{"name":"b","cost":3}],"arcs":[]}`,
	`{"subtasks":[{"name":"a","cost":1,"pinned":1},{"name":"b","cost":2}],"subtasks":[{"name":"c"}],"arcs":null}`,
	`{"subtasks":[{"name":"a","cost":1},{"name":"b","cost":1}],"arcs":[{"from":"a","to":"b","size":1},{"from":"b","to":"a","size":1}]}`,
	`{"subtasks":[],"arcs":[]}`,
	`{}`,
}

// FuzzCanonical pins AppendCanonical to encoding/json. For every input
// Decode accepts, the wire form's canonical bytes must equal json.Marshal
// of the decoded graph and encoding/json's reflective encoding of the
// graph's own wire form, the reference the encoder must match. They
// must decode back to the same bytes: Build refuses a generated name
// that collides with a given one, so an accepted graph's names are its
// own. For every named wire the decoder produces, valid graph or not,
// they must equal the reflective encoding of the wire. For every input
// Decode refuses, no accepted wire may share its canonical bytes.
func FuzzCanonical(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Wire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		canon, err := w.AppendCanonical(nil)
		if err != nil {
			t.Fatalf("canonical encoding of a decoded wire: %v", err)
		}
		if named(&w) {
			if want := reflectiveJSON(t, w); !bytes.Equal(canon, want) {
				t.Fatalf("wire canonical bytes differ from encoding/json:\n got %s\nwant %s", canon, want)
			}
		}
		g, err := Decode(data)
		if err != nil {
			// Were an accepted wire's canonical bytes equal to canon, canon
			// would decode to its graph and marshal back to itself.
			if g2, err := Decode(canon); err == nil {
				if again, err := json.Marshal(g2); err == nil && bytes.Equal(again, canon) {
					t.Fatalf("refused wire shares the canonical bytes of an accepted one:\n%s", canon)
				}
			}
			return
		}
		marshalled, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal decoded graph: %v", err)
		}
		if !bytes.Equal(canon, marshalled) {
			t.Fatalf("canonical bytes differ from json.Marshal(Decode(x)):\n got %s\nwant %s", canon, marshalled)
		}
		if want := reflectiveJSON(t, g.wire()); !bytes.Equal(canon, want) {
			t.Fatalf("graph canonical bytes differ from encoding/json:\n got %s\nwant %s", canon, want)
		}
		g2, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		again, err := json.Marshal(g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form not a fixed point:\n got %s\nwant %s", again, canon)
		}
	})
}

// named reports whether every subtask of w has a name, so its canonical
// form needs none of Build's renaming.
func named(w *Wire) bool {
	for _, st := range w.Subtasks {
		if st.Name == "" {
			return false
		}
	}
	return true
}

// reflectiveJSON is encoding/json's own encoding of a wire form, with
// empty lists written as null as the graph's encoder always has.
func reflectiveJSON(t *testing.T, w Wire) []byte {
	t.Helper()
	if len(w.Subtasks) == 0 {
		w.Subtasks = nil
	}
	if len(w.Arcs) == 0 {
		w.Arcs = nil
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("reflective encoding: %v", err)
	}
	return b
}

// TestCanonicalSeeds runs the fuzz corpus as a plain test and checks the
// corner cases it is meant to reach are really accepted by Decode.
func TestCanonicalSeeds(t *testing.T) {
	accepted := 0
	for _, s := range canonicalSeeds {
		g, err := Decode([]byte(s))
		if err != nil {
			continue
		}
		accepted++
		var w Wire
		if err := json.Unmarshal([]byte(s), &w); err != nil {
			t.Fatal(err)
		}
		canon, err := w.AppendCanonical(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, want) {
			t.Errorf("seed %s:\n got %s\nwant %s", s, canon, want)
		}
	}
	if accepted < 10 {
		t.Errorf("only %d of %d seeds decode; the corpus lost its corner cases", accepted, len(canonicalSeeds))
	}
}

// TestCanonicalStrings covers what no decoded wire can carry: names with
// invalid UTF-8, set through the Builder, encode as encoding/json would.
func TestCanonicalStrings(t *testing.T) {
	for _, name := range []string{
		"plain", "", "\xff", "a\xc3", "\xe2\x80", "é\xffü", "<&>", "\u2028\u2029", "\x00\x01\x1f\x7f",
		"\"quoted\\", "\b\f\n\r\t", "\U0001F600", "\xed\xa0\x80",
	} {
		b := NewBuilder()
		u := b.AddSubtask(name, 1)
		v := b.AddSubtask(name+"!", 2)
		b.Connect(u, v, 1)
		b.SetEndToEnd(v, 5)
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := reflectiveJSON(t, g.wire()); !bytes.Equal(got, want) {
			t.Errorf("name %q:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestCanonicalRejectsNonFinite: like json.Marshal, the canonical encoder
// refuses NaN and infinities wherever a number is written.
func TestCanonicalRejectsNonFinite(t *testing.T) {
	one := 1
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, w := range []Wire{
			{Subtasks: []WireSubtask{{Name: "a", Cost: bad}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1, Release: bad}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1, EndToEnd: bad, Pinned: &one}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1}, {Name: "b", Cost: 1}},
				Arcs: []WireArc{{From: "a", To: "b", Size: bad}}},
		} {
			if _, err := w.AppendCanonical(nil); err == nil {
				t.Errorf("%+v: no error", w)
			}
			if _, err := json.Marshal(w); err == nil {
				t.Errorf("%+v: encoding/json accepts it", w)
			}
		}
	}
	// Builder and SetCost refuse non-finite costs, so the encoder's own
	// guard is reached only by writing one into a built graph.
	b := NewBuilder()
	b.AddSubtask("a", 1)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	g.nodes[0].Cost, g.costs[0] = math.Inf(1), math.Inf(1)
	if _, err := json.Marshal(g); err == nil {
		t.Error("graph with an infinite cost marshals")
	}
}

// TestCanonicalAppends: AppendCanonical appends to dst and leaves the
// prefix alone.
func TestCanonicalAppends(t *testing.T) {
	w := Wire{Subtasks: []WireSubtask{{Name: "a", Cost: 1e-7}}}
	out, err := w.AppendCanonical([]byte("prefix:"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `prefix:{"subtasks":[{"name":"a","cost":1e-7}],"arcs":null}`; string(out) != want {
		t.Errorf("got %s, want %s", out, want)
	}
}

// TestGeneratedNameEndpoint: an arc endpoint may name the unnamed subtask
// by its generated name "t<index>" as well as by its empty name. Both
// wires have the same canonical bytes, so they must build the same graph.
func TestGeneratedNameEndpoint(t *testing.T) {
	var out [2][]byte
	for i, from := range []string{"", "t0"} {
		data := `{"subtasks":[{"name":"","cost":1},{"name":"b","cost":2,"endToEnd":9}],` +
			`"arcs":[{"from":"` + from + `","to":"b","size":1}]}`
		g, err := Decode([]byte(data))
		if err != nil {
			t.Fatalf("from %q: %v", from, err)
		}
		if out[i], err = g.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("arc from \"\" and from \"t0\" build different graphs:\n%s\n%s", out[0], out[1])
	}
}

// FuzzContentKey pins AppendKey's classes to AppendCanonical's. For each
// input the decoder accepts, it writes a twin: the same wire as text with
// every number in another spelling of its value, the keys of every object
// in another order, and arc endpoints naming the unnamed subtask swapped
// between "" and its generated name. Some twins also get one change that
// may or may not alter the canonical bytes (a zero's sign, a pin, a name,
// the arc order, the last bit of a number). Two wires must have equal
// keys exactly when they have equal canonical bytes, and no wire Build
// refuses may share the key of one it accepts.
func FuzzContentKey(f *testing.F) {
	for i, s := range canonicalSeeds {
		f.Add([]byte(s), uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		a, err := decodeWire(data)
		if err != nil {
			return
		}
		r := rand.New(rand.NewPCG(seed, seed>>32))
		twin, changed := keyTwin(a, r)
		b, err := decodeWire(twin)
		if err != nil {
			t.Fatalf("twin does not decode: %v\n%s", err, twin)
		}
		canonA, keyA := canonAndKey(t, &a)
		canonB, keyB := canonAndKey(t, &b)
		if !changed && !bytes.Equal(canonA, canonB) {
			t.Fatalf("unchanged twin has other canonical bytes:\n%s\n%s", canonA, canonB)
		}
		if bytes.Equal(canonA, canonB) != bytes.Equal(keyA, keyB) {
			t.Fatalf("canonical bytes equal = %v, keys equal = %v:\n%s\n%s",
				bytes.Equal(canonA, canonB), bytes.Equal(keyA, keyB), canonA, canonB)
		}
		_, errA := a.Build()
		_, errB := b.Build()
		if bytes.Equal(keyA, keyB) && (errA == nil) != (errB == nil) {
			t.Fatalf("one key, Build errors %v and %v:\n%s\n%s", errA, errB, canonA, canonB)
		}
		if errA != nil {
			// Were an accepted wire's key equal to keyA, its canonical
			// bytes would be canonA, and they decode to that wire.
			if c, err := decodeWire(canonA); err == nil {
				if _, err := c.Build(); err == nil {
					if _, keyC := canonAndKey(t, &c); bytes.Equal(keyC, keyA) {
						t.Fatalf("refused wire shares the key of an accepted one:\n%s", canonA)
					}
				}
			}
		}
	})
}

// canonAndKey returns w's canonical bytes and key, failing t if either
// fails: a wire decoded from JSON holds only finite numbers.
func canonAndKey(t *testing.T, w *Wire) (canon, key []byte) {
	t.Helper()
	canon, err := w.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if key, err = w.AppendKey(nil); err != nil {
		t.Fatal(err)
	}
	return canon, key
}

// keyTwin writes w as JSON text in another spelling, drawn from r, and
// reports whether it also applied a change that may alter the canonical
// bytes.
func keyTwin(w Wire, r *rand.Rand) (twin []byte, changed bool) {
	w.Subtasks = slices.Clone(w.Subtasks)
	w.Arcs = slices.Clone(w.Arcs)
	anon := slices.IndexFunc(w.Subtasks, func(st WireSubtask) bool { return st.Name == "" })
	gen := "t0"
	if anon >= 0 {
		gen = "t" + strconv.Itoa(anon)
	}
	for i := range w.Arcs {
		for _, end := range []*string{&w.Arcs[i].From, &w.Arcs[i].To} {
			if (*end == "" || *end == gen) && r.IntN(2) == 0 {
				if *end == "" {
					*end = gen
				} else {
					*end = ""
				}
				changed = changed || anon < 0
			}
		}
	}
	if n := len(w.Subtasks); n > 0 && r.IntN(3) == 0 {
		changed = true
		st := &w.Subtasks[r.IntN(n)]
		switch r.IntN(5) {
		case 0:
			st.Cost = -st.Cost
		case 1:
			if st.Pinned == nil {
				st.Pinned = new(int)
			} else {
				st.Pinned = nil
			}
		case 2:
			st.Name = ""
		case 3:
			st.Release = math.Copysign(0, -1)
		case 4:
			st.EndToEnd = math.Nextafter(st.EndToEnd, math.Inf(1))
		}
		if len(w.Arcs) > 1 && r.IntN(2) == 0 {
			w.Arcs[0], w.Arcs[1] = w.Arcs[1], w.Arcs[0]
		}
	}

	num := func(dst []byte, f float64) []byte {
		switch r.IntN(4) {
		case 0:
			return strconv.AppendFloat(dst, f, 'e', -1, 64)
		case 1:
			return strconv.AppendFloat(dst, f, 'E', -1, 64)
		case 2:
			s := strconv.FormatFloat(f, 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += "."
			}
			return append(dst, s+"000"...)
		}
		dst, _ = AppendJSONFloat(dst, f)
		return dst
	}
	// object writes an object of fields 0 to n-1 in an order drawn from r.
	object := func(dst []byte, n int, field func([]byte, int) []byte) []byte {
		dst = append(dst, '{')
		for k, i := range r.Perm(n) {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = field(dst, i)
		}
		return append(dst, '}')
	}
	sts := func(dst []byte) []byte {
		dst = append(dst, `"subtasks":[`...)
		for i := range w.Subtasks {
			st := &w.Subtasks[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			fields := 5
			if st.Pinned == nil && r.IntN(2) == 0 {
				fields = 4 // no "pinned":null, which the scan refuses
			}
			dst = object(dst, fields, func(dst []byte, f int) []byte {
				switch f {
				case 0:
					return AppendJSONString(append(dst, `"name":`...), st.Name)
				case 1:
					return num(append(dst, `"cost":`...), st.Cost)
				case 2:
					return num(append(dst, `"release":`...), st.Release)
				case 3:
					return num(append(dst, `"endToEnd":`...), st.EndToEnd)
				}
				if st.Pinned == nil {
					return append(dst, `"pinned":null`...)
				}
				return strconv.AppendInt(append(dst, `"pinned":`...), int64(*st.Pinned), 10)
			})
		}
		return append(dst, ']')
	}
	arcs := func(dst []byte) []byte {
		dst = append(dst, `"arcs":[`...)
		for i := range w.Arcs {
			a := &w.Arcs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = object(dst, 3, func(dst []byte, f int) []byte {
				switch f {
				case 0:
					return AppendJSONString(append(dst, `"from":`...), a.From)
				case 1:
					return AppendJSONString(append(dst, `"to":`...), a.To)
				}
				return num(append(dst, `"size":`...), a.Size)
			})
		}
		return append(dst, ']')
	}
	if r.IntN(2) == 0 {
		twin = append(arcs(append(sts([]byte{'{'}), ',')), '}')
	} else {
		twin = append(sts(append(arcs([]byte{'{'}), ',')), '}')
	}
	return twin, changed
}

// TestKeyNameFraming: a name's key framing is the uvarint length of its
// canonical bytes and then those bytes, across the one-byte length's
// boundary at 128 bytes.
func TestKeyNameFraming(t *testing.T) {
	for _, n := range []int{1, 2, 125, 126, 127, 128, 200, 16381, 16382, 20000} {
		name := strings.Repeat("é", n/2) + strings.Repeat("x", n%2)
		w := Wire{Subtasks: []WireSubtask{{Name: name, Cost: 1}}}
		got, err := w.AppendKey([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		canon := AppendJSONString(nil, name)
		want := binary.AppendUvarint([]byte("prefix\x01"), uint64(len(canon)))
		want = append(want, canon...)
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(1))
		want = append(want, 0, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("name of %d bytes: key %x, want %x", len(name), got, want)
		}
	}
}

// TestKeyRejectsNonFinite: the key refuses NaN and infinities wherever
// the canonical encoder does, with its error.
func TestKeyRejectsNonFinite(t *testing.T) {
	one := 1
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, w := range []Wire{
			{Subtasks: []WireSubtask{{Name: "a", Cost: bad}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1, Release: bad}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1, EndToEnd: bad, Pinned: &one}}},
			{Subtasks: []WireSubtask{{Name: "a", Cost: 1}, {Name: "b", Cost: 1}},
				Arcs: []WireArc{{From: "a", To: "b", Size: bad}}},
		} {
			_, kerr := w.AppendKey(nil)
			_, cerr := w.AppendCanonical(nil)
			if kerr == nil || cerr == nil || kerr.Error() != cerr.Error() {
				t.Errorf("%+v: key error %v, canonical error %v", w, kerr, cerr)
			}
		}
	}
}
