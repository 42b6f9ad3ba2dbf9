// encpool.go pools the JSON encoding scratch of the response paths:
// simulate and batch NDJSON rows, whole-document writeJSON answers and
// batch result payloads all encode through recycled buffer+encoder pairs
// instead of allocating marshal scratch per call. The pooled paths are
// byte-identical to the json.Marshal / json.NewEncoder(w) calls they
// replaced: Encoder.Encode writes exactly Marshal's bytes (same
// escaping) plus one trailing newline, and the indented encoder keeps
// writeJSON's two-space indentation.
package server

import (
	"bytes"
	"encoding/json"
	"sync"
)

// maxPooledEncBytes caps the buffer capacity a returned encoder may
// retain; a rare giant response (a full sweep table, a max-size batch)
// must not pin its buffer in the pool forever.
const maxPooledEncBytes = 1 << 20

// respEncoder is one unit of pooled encoding scratch: a buffer plus a
// compact and an indented JSON encoder bound to it. Callers reset the
// buffer, encode, copy or write the bytes out, and return the unit to
// the pool — the buffer's contents are invalid after release, so
// retained payloads (batch RawMessage results) must be copied out.
type respEncoder struct {
	buf      bytes.Buffer
	compact  *json.Encoder
	indented *json.Encoder
}

var encPool = sync.Pool{
	New: func() any {
		e := &respEncoder{}
		e.compact = json.NewEncoder(&e.buf)
		e.indented = json.NewEncoder(&e.buf)
		e.indented.SetIndent("", "  ")
		return e
	},
}

// getEncoder fetches encoding scratch with an empty buffer.
func getEncoder() *respEncoder {
	e := encPool.Get().(*respEncoder)
	e.buf.Reset()
	return e
}

// putEncoder recycles encoding scratch, dropping oversized buffers.
func putEncoder(e *respEncoder) {
	if e.buf.Cap() > maxPooledEncBytes {
		return
	}
	encPool.Put(e)
}

// encodeCompact encodes v like json.Marshal and returns the bytes
// WITHOUT Encoder.Encode's trailing newline. The slice aliases the
// pooled buffer: consume or copy it before releasing e.
func (e *respEncoder) encodeCompact(v any) ([]byte, error) {
	e.buf.Reset()
	if err := e.compact.Encode(v); err != nil {
		return nil, err
	}
	b := e.buf.Bytes()
	return b[:len(b)-1], nil
}

// appendCompact appends encodeCompact's bytes for v to b — the row
// encoder of the NDJSON streams whose rows keep encoding/json
// (simulate and batch rows).
func (e *respEncoder) appendCompact(b []byte, v any) ([]byte, error) {
	data, err := e.encodeCompact(v)
	return append(b, data...), err
}
