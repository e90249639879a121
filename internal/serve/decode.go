package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"

	"deadlinedist/internal/taskgraph"
)

// maxPooledBuffer caps the buffers returned to bodyPool and keyPool: one
// oversized request must not keep its buffer pooled for the life of the
// process.
const maxPooledBuffer = 64 << 10

// putBuffer returns *bp to pool unless it has outgrown maxPooledBuffer.
func putBuffer(pool *sync.Pool, bp *[]byte) {
	if cap(*bp) <= maxPooledBuffer {
		pool.Put(bp)
	}
}

// bodyPool recycles the buffers request bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// requestKeys are the JSON names of wireRequest's fields, in the order
// scanRequest switches on them.
var requestKeys = []string{"graph", "procs", "assigner", "policy", "budgetMs", "tenant", "class"}

// decodeRequest decodes one request from body into the zero *req with
// json.Decoder's semantics: bytes after the first value are ignored, and a
// read error (an over-limit body included) surfaces once the bytes read
// before it run out. A body in the strict subset of taskgraph.Scanner is
// decoded in one pass over a string copy, whose substrings become the
// request's strings. Any other body, or one whose read failed, is handed
// to encoding/json over the same bytes, so every error is its error. A
// body with a backslash goes there without the copy and the scan: a
// backslash outside a string is a syntax error, inside one it starts an
// escape the subset refuses, and past the first value encoding/json
// ignores it just as the scan would.
func decodeRequest(body io.Reader, req *wireRequest) error {
	bp := bodyPool.Get().(*[]byte)
	defer putBuffer(&bodyPool, bp)
	bb := bytes.NewBuffer((*bp)[:0])
	_, rerr := bb.ReadFrom(body)
	buf := bb.Bytes()
	*bp = buf
	if rerr == nil && bytes.IndexByte(buf, '\\') < 0 && scanRequest(string(buf), req) {
		return nil
	}
	*req = wireRequest{}
	var rd io.Reader = bytes.NewReader(buf)
	if rerr != nil {
		rd = io.MultiReader(rd, failedReader{rerr})
	}
	return json.NewDecoder(rd).Decode(req)
}

// scanRequest decodes src's first value into req if it lies in the
// scanner's strict subset, and reports whether it did. The graph's
// strings stay substrings of src: the wire and the graph built from it
// live no longer than the request. The scalar strings are cloned, since a
// tenant name outlives it as the key of its token bucket.
func scanRequest(src string, req *wireRequest) bool {
	sc := taskgraph.NewScanner(src)
	if !sc.Object() {
		return false
	}
	var seen uint64
	for i := 0; ; i++ {
		switch sc.Key(i, requestKeys, &seen) {
		case -1:
			return !sc.Failed()
		case 0:
			sc.Wire(&req.Graph)
		case 1:
			req.Procs = sc.Int()
		case 2:
			req.Assigner = strings.Clone(sc.String())
		case 3:
			req.Policy = strings.Clone(sc.String())
		case 4:
			req.BudgetMs = sc.Int()
		case 5:
			req.Tenant = strings.Clone(sc.String())
		case 6:
			req.Class = strings.Clone(sc.String())
		}
	}
}

// failedReader replays a body's read error after its buffered bytes, as
// json.Decoder met it in the original stream.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }
