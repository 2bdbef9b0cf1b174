package server

// The length-prefixed binary batch framing: the high-throughput wire
// format for POST /v1/samples. A request body is a sequence of frames,
// one frame per stream.Batch, each a fixed little-endian header followed
// by the session/process strings, packed object records, and packed
// fixed-width sample records — no varints, no reflection, no type
// dictionaries. A frame decodes with plain loads into preallocated
// backing arrays, so ingest cost is bounded by the analyzer, not the
// transport.
//
// Frame layout (all integers little-endian):
//
//	header (68 bytes)
//	  [ 0: 4) magic "SSB1"
//	  [ 4: 8) frameLen  uint32   total frame bytes, header included
//	  [ 8:12) sessionLen uint32
//	  [12:16) processLen uint32
//	  [16:20) tid       int32
//	  [20:28) period    uint64
//	  [28:36) seq       uint64
//	  [36:44) appCycles uint64
//	  [44:52) overheadCycles uint64
//	  [52:60) memOps    uint64
//	  [60:64) nObjects  uint32
//	  [64:68) nSamples  uint32
//	session bytes, process bytes
//	nObjects object records (43 bytes + name):
//	  base(8) size(8) identity(8) allocIP(8) id(4) typeID(4) heap(1) nameLen(2) name
//	nSamples sample records (46 bytes):
//	  ip(8) ea(8) cycle(8) ctx(8) tid(4) latency(4) objID(4) level(1) write(1)
//
// The encoding is canonical: a frame is a pure function of its batch, and
// the decoder rejects any frame whose frameLen disagrees with the sizes
// implied by its counts, so decode→encode is byte-identical for every
// accepted input (the fuzz test pins this down).

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/profile"
	"repro/internal/stream"
)

// ContentTypeBinary negotiates the binary batch framing.
const ContentTypeBinary = "application/x-structslim-binary"

const (
	binaryMagic      = uint32('S') | uint32('S')<<8 | uint32('B')<<16 | uint32('1')<<24
	binaryHeaderLen  = 68
	binaryObjFixed   = 43
	binarySampleLen  = 46
	maxFrameLen      = 1 << 26 // 64 MiB
	maxStringLen     = 1 << 12
	maxObjectsPerMsg = 1 << 20
)

// AppendBatchBinary appends one batch's frame to dst and returns the
// extended slice — the zero-allocation encode primitive clients build
// pipelined senders on.
func AppendBatchBinary(dst []byte, b *stream.Batch) []byte {
	frameLen := binaryHeaderLen + len(b.Session) + len(b.Process) + binarySampleLen*len(b.Samples)
	for i := range b.Objects {
		frameLen += binaryObjFixed + len(b.Objects[i].Name)
	}
	var h [binaryHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(h[0:], binaryMagic)
	le.PutUint32(h[4:], uint32(frameLen))
	le.PutUint32(h[8:], uint32(len(b.Session)))
	le.PutUint32(h[12:], uint32(len(b.Process)))
	le.PutUint32(h[16:], uint32(b.TID))
	le.PutUint64(h[20:], b.Period)
	le.PutUint64(h[28:], b.Seq)
	le.PutUint64(h[36:], b.AppCycles)
	le.PutUint64(h[44:], b.OverheadCycles)
	le.PutUint64(h[52:], b.MemOps)
	le.PutUint32(h[60:], uint32(len(b.Objects)))
	le.PutUint32(h[64:], uint32(len(b.Samples)))
	dst = append(dst, h[:]...)
	dst = append(dst, b.Session...)
	dst = append(dst, b.Process...)
	var rec [binaryObjFixed]byte
	for i := range b.Objects {
		o := &b.Objects[i]
		le.PutUint64(rec[0:], o.Base)
		le.PutUint64(rec[8:], o.Size)
		le.PutUint64(rec[16:], o.Identity)
		le.PutUint64(rec[24:], o.AllocIP)
		le.PutUint32(rec[32:], uint32(o.ID))
		le.PutUint32(rec[36:], uint32(o.TypeID))
		rec[40] = 0
		if o.Heap {
			rec[40] = 1
		}
		le.PutUint16(rec[41:], uint16(len(o.Name)))
		dst = append(dst, rec[:]...)
		dst = append(dst, o.Name...)
	}
	var sr [binarySampleLen]byte
	for i := range b.Samples {
		s := &b.Samples[i]
		le.PutUint64(sr[0:], s.IP)
		le.PutUint64(sr[8:], s.EA)
		le.PutUint64(sr[16:], s.Cycle)
		le.PutUint64(sr[24:], s.Ctx)
		le.PutUint32(sr[32:], uint32(s.TID))
		le.PutUint32(sr[36:], s.Latency)
		le.PutUint32(sr[40:], uint32(s.ObjID))
		sr[44] = s.Level
		sr[45] = 0
		if s.Write {
			sr[45] = 1
		}
		dst = append(dst, sr[:]...)
	}
	return dst
}

// Arena is a pooled decode workspace: the byte buffer one request's
// frames are read into and the []profile.Sample backing array every
// batch's Samples slice points into. Arenas recycle through a sync.Pool,
// so steady-state binary ingest performs zero per-sample allocations —
// only the per-batch session/process/name strings allocate.
//
// Ownership: the analyzer copies every sample and object it retains
// during Ingest, so a batch's backing arrays may be recycled as soon as
// that batch has been ingested (or dropped). Each batch holds one
// reference; Release returns the arena to the pool when the last
// reference drops.
type Arena struct {
	refs    atomic.Int64
	buf     []byte
	samples []profile.Sample
	batches []stream.Batch
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// Release drops one batch's reference; the last release recycles the
// arena. Safe on a nil arena (non-pooled codecs).
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		arenaPool.Put(a)
	}
}

// retain primes the arena with one reference per decoded batch.
func (a *Arena) retain(n int) {
	if a != nil {
		a.refs.Store(int64(n))
	}
}

// grow returns a[:n] with reallocation only when capacity is short.
func growBytes(a []byte, n int) []byte {
	if cap(a) < n {
		return make([]byte, n)
	}
	return a[:n]
}

// decodeBinary reads every frame of r. With a non-nil arena the sample
// records of all frames share one arena-owned backing array; otherwise
// fresh slices are allocated (the standalone DecodeBatches path, whose
// results outlive the call).
func decodeBinary(r io.Reader, arena *Arena) ([]stream.Batch, error) {
	le := binary.LittleEndian
	var batches []stream.Batch
	var samples []profile.Sample
	if arena != nil {
		batches = arena.batches[:0]
		samples = arena.samples[:0]
	}
	var header [binaryHeaderLen]byte
	var body []byte
	if arena != nil {
		body = arena.buf
	}
	totalSamples := 0
	for frame := 0; ; frame++ {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("binary: frame %d: truncated header: %w", frame, err)
		}
		if got := le.Uint32(header[0:]); got != binaryMagic {
			return nil, fmt.Errorf("binary: frame %d: bad magic %#x", frame, got)
		}
		frameLen := int(le.Uint32(header[4:]))
		sessionLen := int(le.Uint32(header[8:]))
		processLen := int(le.Uint32(header[12:]))
		nObjects := int(le.Uint32(header[60:]))
		nSamples := int(le.Uint32(header[64:]))
		if frameLen > maxFrameLen {
			return nil, fmt.Errorf("binary: frame %d: oversized frame (%d bytes > %d)", frame, frameLen, maxFrameLen)
		}
		if sessionLen > maxStringLen || processLen > maxStringLen {
			return nil, fmt.Errorf("binary: frame %d: oversized session/process string", frame)
		}
		if nObjects > maxObjectsPerMsg {
			return nil, fmt.Errorf("binary: frame %d: oversized object table (%d)", frame, nObjects)
		}
		minLen := binaryHeaderLen + sessionLen + processLen + nObjects*binaryObjFixed + nSamples*binarySampleLen
		if frameLen < minLen || nSamples < 0 || minLen < binaryHeaderLen {
			return nil, fmt.Errorf("binary: frame %d: header counts exceed frame length (%d > %d)", frame, minLen, frameLen)
		}
		body = growBytes(body, frameLen-binaryHeaderLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("binary: frame %d: truncated body: %w", frame, err)
		}

		b := stream.Batch{
			TID:            int32(le.Uint32(header[16:])),
			Period:         le.Uint64(header[20:]),
			Seq:            le.Uint64(header[28:]),
			AppCycles:      le.Uint64(header[36:]),
			OverheadCycles: le.Uint64(header[44:]),
			MemOps:         le.Uint64(header[52:]),
		}
		p := body
		b.Session, p = string(p[:sessionLen]), p[sessionLen:]
		b.Process, p = string(p[:processLen]), p[processLen:]
		if nObjects > 0 {
			b.Objects = make([]profile.ObjInfo, nObjects)
			for i := range b.Objects {
				if len(p) < binaryObjFixed {
					return nil, fmt.Errorf("binary: frame %d: truncated object record %d", frame, i)
				}
				o := &b.Objects[i]
				o.Base = le.Uint64(p[0:])
				o.Size = le.Uint64(p[8:])
				o.Identity = le.Uint64(p[16:])
				o.AllocIP = le.Uint64(p[24:])
				o.ID = int32(le.Uint32(p[32:]))
				o.TypeID = int32(le.Uint32(p[36:]))
				if p[40] > 1 {
					return nil, fmt.Errorf("binary: frame %d: object %d: bad heap flag %d", frame, i, p[40])
				}
				o.Heap = p[40] == 1
				nameLen := int(le.Uint16(p[41:]))
				p = p[binaryObjFixed:]
				if nameLen > maxStringLen || len(p) < nameLen {
					return nil, fmt.Errorf("binary: frame %d: object %d: bad name length %d", frame, i, nameLen)
				}
				o.Name, p = string(p[:nameLen]), p[nameLen:]
			}
		}
		if len(p) != nSamples*binarySampleLen {
			return nil, fmt.Errorf("binary: frame %d: frame length disagrees with counts (%d trailing bytes for %d samples)",
				frame, len(p), nSamples)
		}
		if nSamples > 0 {
			var dst []profile.Sample
			if arena != nil {
				off := len(samples)
				samples = append(samples, make([]profile.Sample, nSamples)...)
				dst = samples[off : off+nSamples : off+nSamples]
			} else {
				dst = make([]profile.Sample, nSamples)
			}
			for i := range dst {
				s := &dst[i]
				s.IP = le.Uint64(p[0:])
				s.EA = le.Uint64(p[8:])
				s.Cycle = le.Uint64(p[16:])
				s.Ctx = le.Uint64(p[24:])
				s.TID = int32(le.Uint32(p[32:]))
				s.Latency = le.Uint32(p[36:])
				s.ObjID = int32(le.Uint32(p[40:]))
				s.Level = p[44]
				if p[45] > 1 {
					return nil, fmt.Errorf("binary: frame %d: sample %d: bad write flag %d", frame, i, p[45])
				}
				s.Write = p[45] == 1
				p = p[binarySampleLen:]
			}
			b.Samples = dst
			totalSamples += nSamples
		}
		batches = append(batches, b)
	}
	if arena != nil {
		// Appends past capacity moved the slab: repoint every batch at its
		// final backing array before handing the slab to the arena.
		off := 0
		for i := range batches {
			if n := len(batches[i].Samples); n > 0 {
				batches[i].Samples = samples[off : off+n : off+n]
				off += n
			}
		}
		arena.buf = body
		arena.samples = samples
		arena.batches = batches
	}
	return batches, nil
}

// encodeBinary writes every batch as one frame.
func encodeBinary(w io.Writer, bs []stream.Batch) error {
	var buf []byte
	for i := range bs {
		buf = AppendBatchBinary(buf[:0], &bs[i])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBatchesArena decodes one request body like DecodeBatches but, for
// the binary content type, into a pooled arena: every batch's Samples
// slice points into one reused backing array, and each batch must call
// arena.Release() once it no longer needs the samples. For NDJSON the
// returned arena is nil (its decoder allocates normally) and Release on
// nil is a no-op.
func DecodeBatchesArena(r io.Reader, contentType string) ([]stream.Batch, *Arena, error) {
	if normalizeContentType(contentType) != ContentTypeBinary {
		bs, err := DecodeBatches(r, contentType)
		return bs, nil, err
	}
	arena := arenaPool.Get().(*Arena)
	bs, err := decodeBinary(r, arena)
	if err != nil {
		arena.retain(1)
		arena.Release()
		return nil, nil, err
	}
	if len(bs) == 0 {
		arena.retain(1)
		arena.Release()
		return bs, nil, nil
	}
	arena.retain(len(bs))
	return bs, arena, nil
}
