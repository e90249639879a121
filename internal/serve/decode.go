package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"

	"deadlinedist/internal/taskgraph"
)

// maxPooledBuffer caps the buffers returned to scratchPool and keyPool:
// one oversized request must not keep its buffer pooled for the life of
// the process.
const maxPooledBuffer = 64 << 10

// maxPooledList caps, in elements, the wire lists returned to
// scratchPool, for the same reason: a body of empty objects can hold many
// elements per byte.
const maxPooledList = 4096

// putBuffer returns *bp to pool unless it has outgrown maxPooledBuffer.
func putBuffer(pool *sync.Pool, bp *[]byte) {
	if cap(*bp) <= maxPooledBuffer {
		pool.Put(bp)
	}
}

// requestScratch is what one request borrows from scratchPool for its
// decode: the buffer its body is read into and the storage of its wire's
// lists. handleAssign holds it until it returns.
type requestScratch struct {
	body  []byte
	lists taskgraph.Wire
}

var scratchPool = sync.Pool{New: func() any { return new(requestScratch) }}

// putScratch returns sc to scratchPool unless its body or a list has
// outgrown its cap.
func putScratch(sc *requestScratch) {
	if cap(sc.body) <= maxPooledBuffer && cap(sc.lists.Subtasks) <= maxPooledList && cap(sc.lists.Arcs) <= maxPooledList {
		scratchPool.Put(sc)
	}
}

// requestKeys are the JSON names of wireRequest's fields, in the order
// scanRequest switches on them.
var requestKeys = []string{"graph", "procs", "assigner", "policy", "budgetMs", "tenant", "class"}

// decodeRequest decodes one request from body into the zero *req with
// json.Decoder's semantics: bytes after the first value are ignored, and a
// read error (an over-limit body included) surfaces once the bytes read
// before it run out. The body is read into sc.body. One in the strict
// subset of taskgraph.Scanner is decoded in one pass over those bytes, in
// place, into lists cut from sc.lists. Any other body, or one whose read
// failed, is handed to encoding/json over the same bytes, so every error
// is its error. A body with a backslash goes there without the scan: a
// backslash outside a string is a syntax error, inside one it starts an
// escape the subset refuses, and past the first value encoding/json
// ignores it just as the scan would.
func decodeRequest(body io.Reader, req *wireRequest, sc *requestScratch) error {
	bb := bytes.NewBuffer(sc.body[:0])
	_, rerr := bb.ReadFrom(body)
	buf := bb.Bytes()
	sc.body = buf
	// The lifetime rule of the in-place scan: the wire's names alias
	// sc.body and its lists are sc.lists, so req.Graph is valid only until
	// sc goes back to scratchPool, when handleAssign returns. Nothing the
	// request leaves behind points into sc: Build copies the names into
	// the graph, parse drops the wire once the graph is built, and
	// scanRequest clones the scalar strings.
	if rerr == nil && bytes.IndexByte(buf, '\\') < 0 && scanRequest(taskgraph.NewScanner(buf), req, &sc.lists) {
		return nil
	}
	*req = wireRequest{}
	var rd io.Reader = bytes.NewReader(buf)
	if rerr != nil {
		rd = io.MultiReader(rd, failedReader{rerr})
	}
	return json.NewDecoder(rd).Decode(req)
}

// scanRequest decodes the first value sc reads into req if it lies in
// the scanner's strict subset, and reports whether it did. The graph's
// lists are cut from lists (see Scanner.Wire), and its strings are the
// scanner's. The scalar strings are cloned, since a tenant name outlives
// the request as the key of its token bucket.
func scanRequest(sc taskgraph.Scanner, req *wireRequest, lists *taskgraph.Wire) bool {
	if !sc.Object() {
		return false
	}
	var seen uint64
	for i := 0; ; i++ {
		switch sc.Key(i, requestKeys, &seen) {
		case -1:
			return !sc.Failed()
		case 0:
			sc.Wire(&req.Graph, lists)
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
