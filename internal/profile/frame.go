package profile

// Frames are the one encoding of samples: a profile file is a sequence
// of frames, and so is a POST /v1/samples body and a GET /v1/snapshot
// body. Each frame carries one Batch as a fixed little-endian header
// followed by the session/process strings, packed object records and
// packed fixed-width sample records: no varints, no reflection, no type
// dictionaries. A frame decodes with plain loads into reused backing
// arrays, so ingest cost is bounded by the analyzer, not the transport.
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
// accepted input (FuzzIngestDecode pins this down).

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Batch is one frame: a slice of a session's sample stream, in the
// session's observation order. Objects must be registered no later than
// the first batch whose samples reference them (samples with an
// unregistered ObjID are treated as unattributed). The final batch of a
// session may carry the run's cycle accounts.
type Batch struct {
	// Session identifies the stream; one session per profiled thread.
	Session string
	// Process groups sessions that share one object table. Sessions of
	// different processes merge by data-centric identity (the paper's
	// Section 4.4), like MergeProcessProfiles.
	Process string
	// TID is the thread ID the session's samples carry.
	TID int32
	// Period is the sampling period; all sessions of an analyzer must
	// agree (mirroring the profile-merge contract).
	Period uint64
	// Seq numbers the session's batches for lag diagnostics.
	Seq uint64
	// Objects snapshots (part of) the session's data-object table.
	Objects []ObjInfo
	// Samples are the address samples, oldest first.
	Samples []Sample
	// AppCycles/OverheadCycles/MemOps are the session's final cycle
	// accounts; nonzero values overwrite the session's current ones.
	AppCycles      uint64
	OverheadCycles uint64
	MemOps         uint64
}

const (
	frameMagic     = uint32('S') | uint32('S')<<8 | uint32('B')<<16 | uint32('1')<<24
	frameHeaderLen = 68
	frameObjFixed  = 43
	frameSampleLen = 46
	maxFrameLen    = 1 << 26 // 64 MiB
	maxStringLen   = 1 << 12
	maxObjects     = 1 << 20
	// frameSamples is the batch size of profile files and snapshots:
	// 8192 samples make a frame of about 368 KiB, far below maxFrameLen.
	frameSamples = 8192
)

// frameLen is the encoded size of b's frame.
func frameLen(b *Batch) int {
	n := frameHeaderLen + len(b.Session) + len(b.Process) + frameSampleLen*len(b.Samples)
	for i := range b.Objects {
		n += frameObjFixed + len(b.Objects[i].Name)
	}
	return n
}

// AppendBatch appends b's frame to dst and returns the extended slice:
// the zero-allocation encode primitive pipelined senders build on. It
// does not check the decoder's limits; AppendBatches does.
func AppendBatch(dst []byte, b *Batch) []byte {
	var h [frameHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(h[0:], frameMagic)
	le.PutUint32(h[4:], uint32(frameLen(b)))
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
	var rec [frameObjFixed]byte
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
	var sr [frameSampleLen]byte
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

// checkBatch refuses a batch whose frame the decoder would reject, so a
// writer never produces a file its reader cannot load.
func checkBatch(b *Batch) error {
	if len(b.Session) > maxStringLen || len(b.Process) > maxStringLen {
		return fmt.Errorf("session %.32q or process %.32q longer than %d bytes", b.Session, b.Process, maxStringLen)
	}
	if len(b.Objects) > maxObjects {
		return fmt.Errorf("%d objects in one frame, more than %d", len(b.Objects), maxObjects)
	}
	for i := range b.Objects {
		if o := &b.Objects[i]; len(o.Name) > maxStringLen {
			return fmt.Errorf("object %d (%.32q…): name of %d bytes is longer than %d", o.ID, o.Name, len(o.Name), maxStringLen)
		}
	}
	if n := frameLen(b); n > maxFrameLen {
		return fmt.Errorf("frame of %d bytes, more than %d", n, maxFrameLen)
	}
	return nil
}

// AppendBatches appends each batch's frame to dst. It refuses, before
// appending anything, a batch that breaks a limit the decoder enforces.
func AppendBatches(dst []byte, bs []Batch) ([]byte, error) {
	size := 0
	for i := range bs {
		if err := checkBatch(&bs[i]); err != nil {
			return dst, fmt.Errorf("profile: batch %d: %w", i, err)
		}
		size += frameLen(&bs[i])
	}
	dst = slices.Grow(dst, size)
	for i := range bs {
		dst = AppendBatch(dst, &bs[i])
	}
	return dst, nil
}

// AppendThread appends the frames of one thread profile, split as
// session's batch stream at the batch size of profile files.
func AppendThread(dst []byte, tp *ThreadProfile, session, process string) ([]byte, error) {
	return AppendBatches(dst, Split(tp, session, process, frameSamples))
}

// Decoder reads frames into backing arrays it reuses: every batch of one
// Decode call points into them, so the batches, their sample slices
// included, stay valid only until the next call.
type Decoder struct {
	buf     []byte
	samples []Sample
	batches []Batch
}

// Decode reads every frame of r. All batches' sample records share one
// backing array; strings and object tables are freshly allocated.
func (d *Decoder) Decode(r io.Reader) ([]Batch, error) {
	le := binary.LittleEndian
	batches := d.batches[:0]
	samples := d.samples[:0]
	body := d.buf
	var header [frameHeaderLen]byte
	for frame := 0; ; frame++ {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("profile: frame %d: truncated header: %w", frame, err)
		}
		if got := le.Uint32(header[0:]); got != frameMagic {
			return nil, fmt.Errorf("profile: frame %d: bad magic %#x", frame, got)
		}
		frameLen := int(le.Uint32(header[4:]))
		sessionLen := int(le.Uint32(header[8:]))
		processLen := int(le.Uint32(header[12:]))
		nObjects := int(le.Uint32(header[60:]))
		nSamples := int(le.Uint32(header[64:]))
		if frameLen > maxFrameLen {
			return nil, fmt.Errorf("profile: frame %d: oversized frame (%d bytes > %d)", frame, frameLen, maxFrameLen)
		}
		if sessionLen > maxStringLen || processLen > maxStringLen {
			return nil, fmt.Errorf("profile: frame %d: oversized session/process string", frame)
		}
		if nObjects > maxObjects {
			return nil, fmt.Errorf("profile: frame %d: oversized object table (%d)", frame, nObjects)
		}
		minLen := frameHeaderLen + sessionLen + processLen + nObjects*frameObjFixed + nSamples*frameSampleLen
		if frameLen < minLen || nSamples < 0 || minLen < frameHeaderLen {
			return nil, fmt.Errorf("profile: frame %d: header counts exceed frame length (%d > %d)", frame, minLen, frameLen)
		}
		if cap(body) < frameLen-frameHeaderLen {
			body = make([]byte, frameLen-frameHeaderLen)
		}
		body = body[:frameLen-frameHeaderLen]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("profile: frame %d: truncated body: %w", frame, err)
		}

		b := Batch{
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
			b.Objects = make([]ObjInfo, nObjects)
			for i := range b.Objects {
				if len(p) < frameObjFixed {
					return nil, fmt.Errorf("profile: frame %d: truncated object record %d", frame, i)
				}
				o := &b.Objects[i]
				o.Base = le.Uint64(p[0:])
				o.Size = le.Uint64(p[8:])
				o.Identity = le.Uint64(p[16:])
				o.AllocIP = le.Uint64(p[24:])
				o.ID = int32(le.Uint32(p[32:]))
				o.TypeID = int32(le.Uint32(p[36:]))
				if p[40] > 1 {
					return nil, fmt.Errorf("profile: frame %d: object %d: bad heap flag %d", frame, i, p[40])
				}
				o.Heap = p[40] == 1
				nameLen := int(le.Uint16(p[41:]))
				p = p[frameObjFixed:]
				if nameLen > maxStringLen || len(p) < nameLen {
					return nil, fmt.Errorf("profile: frame %d: object %d: bad name length %d", frame, i, nameLen)
				}
				o.Name, p = string(p[:nameLen]), p[nameLen:]
			}
		}
		if len(p) != nSamples*frameSampleLen {
			return nil, fmt.Errorf("profile: frame %d: frame length disagrees with counts (%d trailing bytes for %d samples)",
				frame, len(p), nSamples)
		}
		if nSamples > 0 {
			off := len(samples)
			samples = append(samples, make([]Sample, nSamples)...)
			dst := samples[off : off+nSamples : off+nSamples]
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
					return nil, fmt.Errorf("profile: frame %d: sample %d: bad write flag %d", frame, i, p[45])
				}
				s.Write = p[45] == 1
				p = p[frameSampleLen:]
			}
			b.Samples = dst
		}
		batches = append(batches, b)
	}
	// Appends past capacity moved the sample array: repoint every batch
	// at the final one before keeping it for the next call.
	off := 0
	for i := range batches {
		if n := len(batches[i].Samples); n > 0 {
			batches[i].Samples = samples[off : off+n : off+n]
			off += n
		}
	}
	d.buf, d.samples, d.batches = body, samples, batches
	return batches, nil
}

// Split cuts a thread profile into the ordered batch stream of one
// session: batchSize samples per batch, the object table on the first
// batch and the cycle accounts on the last. A profile without samples
// still yields one batch, which carries both.
func Split(tp *ThreadProfile, session, process string, batchSize int) []Batch {
	n := len(tp.Samples)
	out := make([]Batch, 0, max(1, (n+batchSize-1)/batchSize))
	for start := 0; ; start += batchSize {
		end := min(start+batchSize, n)
		b := Batch{
			Session: session,
			Process: process,
			TID:     int32(tp.TID),
			Period:  tp.Period,
			Seq:     uint64(len(out)),
			Samples: tp.Samples[start:end],
		}
		if start == 0 {
			b.Objects = tp.Objects
		}
		if end == n {
			b.AppCycles, b.OverheadCycles, b.MemOps = tp.AppCycles, tp.OverheadCycles, tp.MemOps
			return append(out, b)
		}
		out = append(out, b)
	}
}

// Replay rebuilds one thread's profile from its batches in order, the
// inverse of Split: objects register on first sight, every sample goes
// through ThreadProfile.Add with its object's identity, and nonzero
// cycle accounts overwrite earlier ones, as the streaming analyzer
// ingests them. Every batch must carry the first one's TID and period.
func Replay(bs []Batch) (*ThreadProfile, error) {
	if len(bs) == 0 {
		return nil, fmt.Errorf("profile: no frames")
	}
	tid, period := bs[0].TID, bs[0].Period
	tp := NewThreadProfile(int(tid), period)
	total := 0
	for i := range bs {
		if bs[i].TID != tid {
			return nil, fmt.Errorf("profile: frame %d: tid %d, frame 0 has %d", i, bs[i].TID, tid)
		}
		if bs[i].Period != period {
			return nil, fmt.Errorf("profile: frame %d: period %d, frame 0 has %d", i, bs[i].Period, period)
		}
		total += len(bs[i].Samples)
	}
	if total > 0 {
		tp.Samples = make([]Sample, 0, total)
	}
	identity := make(map[int32]uint64)
	for i := range bs {
		b := &bs[i]
		for _, o := range b.Objects {
			if _, ok := identity[o.ID]; !ok {
				identity[o.ID] = o.Identity
				tp.Objects = append(tp.Objects, o)
			}
		}
		for _, s := range b.Samples {
			var id uint64
			if s.ObjID >= 0 {
				id = identity[s.ObjID]
			}
			tp.Add(s, id)
		}
		if b.AppCycles != 0 {
			tp.AppCycles = b.AppCycles
		}
		if b.OverheadCycles != 0 {
			tp.OverheadCycles = b.OverheadCycles
		}
		if b.MemOps != 0 {
			tp.MemOps = b.MemOps
		}
	}
	return tp, nil
}
