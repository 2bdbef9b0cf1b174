package server

// POST /v1/samples takes a body of binary frames (profile.Batch records;
// the layout is documented in internal/profile/frame.go), the encoding
// profile files and GET /v1/snapshot use too.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/profile"
)

// ContentTypeBinary negotiates the binary frames.
const ContentTypeBinary = "application/x-structslim-binary"

// AppendBatchBinary appends one batch's frame to dst: profile.AppendBatch
// under the name the benchmark module (structbench) uses.
func AppendBatchBinary(dst []byte, b *profile.Batch) []byte { return profile.AppendBatch(dst, b) }

// Arena is a pooled decode workspace: the byte buffer one request's
// frames are read into and the []profile.Sample backing array every
// batch's Samples slice points into. Arenas recycle through a sync.Pool,
// so steady-state ingest performs zero per-sample allocations — only the
// per-batch session/process/name strings allocate.
//
// Ownership: the analyzer copies every sample and object it retains
// during Ingest, so a batch's backing arrays may be recycled as soon as
// that batch has been ingested (or dropped). Each batch holds one
// reference; Release returns the arena to the pool when the last
// reference drops.
type Arena struct {
	refs atomic.Int64
	dec  profile.Decoder
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// Release drops one batch's reference; the last release recycles the
// arena. Safe on a nil arena.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		arenaPool.Put(a)
	}
}

// DecodeBatchesArena decodes one request body of the binary content type
// into a pooled arena: every batch's Samples slice points into one
// reused backing array, and each batch must call arena.Release() once it
// no longer needs the samples. Any other content type is refused. With
// an error or no batches the returned arena is nil.
func DecodeBatchesArena(r io.Reader, contentType string) ([]profile.Batch, *Arena, error) {
	if normalizeContentType(contentType) != ContentTypeBinary {
		return nil, nil, fmt.Errorf("unsupported content type %q (want %s)", contentType, ContentTypeBinary)
	}
	arena := arenaPool.Get().(*Arena)
	bs, err := arena.dec.Decode(r)
	if err != nil || len(bs) == 0 {
		arenaPool.Put(arena)
		return nil, nil, err
	}
	arena.refs.Store(int64(len(bs)))
	return bs, arena, nil
}

// normalizeContentType strips parameters ("; charset=...") and spaces.
func normalizeContentType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}
