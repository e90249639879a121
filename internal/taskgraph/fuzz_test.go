package taskgraph

import "testing"

// FuzzDecode exercises the JSON decoder with arbitrary input: it must
// never panic, whenever its strict scan accepts an input json.Unmarshal
// must decode the same Wire, and whenever it accepts an input, the
// resulting graph must re-encode and decode to an equivalent graph
// (round-trip stability).
func FuzzDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"subtasks":[],"arcs":[]}`,
		`{"subtasks":[{"name":"a","cost":1}],"arcs":[]}`,
		`{"subtasks":[{"name":"a","cost":1},{"name":"b","cost":2,"endToEnd":9}],"arcs":[{"from":"a","to":"b","size":3}]}`,
		`{"subtasks":[{"name":"a","cost":1,"pinned":0},{"name":"b","cost":2,"endToEnd":9,"release":1}],"arcs":[{"from":"a","to":"b","size":3}]}`,
		`{"subtasks":[{"name":"a","cost":-1}],"arcs":[]}`,
		`{"subtasks":[{"name":"a","cost":1}],"arcs":[{"from":"a","to":"a","size":1}]}`,
		`[1,2,3]`,
		`{"subtasks":[{"name":"a","cost":1e308},{"name":"b","cost":1,"endToEnd":1}],"arcs":[{"from":"b","to":"a","size":0}]}`,
		` {"subtasks":[{"name":"\u00e9","cost":-0,"pinned":1e0}],"Arcs":null} x`,
		`{"subtasks":[{"name":"a","cost":1,"cost":2}],"arcs":[]}`,
		`{"subtasks":[{"name":"","cost":1},{"name":"t0","cost":2,"endToEnd":9}],"arcs":[{"from":"","to":"t0","size":1}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanAgrees(t, data)
		g, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted graphs must be structurally sound and round-trip.
		if g.NumSubtasks() == 0 {
			t.Fatal("decoder accepted an empty graph")
		}
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		g2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if g2.NumSubtasks() != g.NumSubtasks() || g2.NumMessages() != g.NumMessages() {
			t.Fatalf("round trip changed structure: %d/%d vs %d/%d",
				g.NumSubtasks(), g.NumMessages(), g2.NumSubtasks(), g2.NumMessages())
		}
		if g2.TotalWork() != g.TotalWork() {
			t.Fatalf("round trip changed workload: %v vs %v", g.TotalWork(), g2.TotalWork())
		}
	})
}
