package progfuzz

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/legality"
	"repro/internal/prog"
	"repro/internal/sharing"
	"repro/internal/staticlint"
	"repro/internal/vm"
)

// seed is one f.Add input and the outcome its name promises: reaches
// returns nil when the generated program reaches it.
type seed struct {
	name    string
	data    []byte
	reaches func(p *prog.Program, phases [][]vm.ThreadSpec) error
}

func addSeeds(f *testing.F, seeds []seed) {
	for _, s := range seeds {
		f.Add(s.data)
	}
}

// in is the input of a header byte followed by op pairs.
func in(header byte, ops ...[2]byte) []byte {
	data := []byte{header}
	for _, o := range ops {
		data = append(data, o[0], o[1])
	}
	return data
}

// op is one (op, arg) pair whose accesses index by ix.
func op(code, ix, arg byte) [2]byte { return [2]byte{code | ix<<3, arg} }

// resolverSeeds seed FuzzResolver and FuzzReusePredictor.
var resolverSeeds = []seed{
	{"one loop, one load: an Exact stream of stride 72",
		in(0, op(opLoop, 0, 5), op(opLoad, ixIV, 9), op(opClose, 0, 0)),
		streams(func(a *staticlint.Analysis) error {
			if s := a.Streams[0]; s.Confidence != staticlint.Exact || s.Stride != 72 {
				return fmt.Errorf("load is %v, stride %d", s.Confidence, s.Stride)
			}
			return nil
		})},
	{"nest: inner load, outer store: Exact streams, and the nest predicted",
		in(0, op(opLoop, 0, 3), op(opLoop, 0, 6), op(opLoad, ixIV+1, 17), op(opClose, 0, 0),
			op(opStore, ixIV, 4), op(opClose, 0, 0)),
		streams(func(a *staticlint.Analysis) error {
			for _, s := range a.Streams {
				if s.Confidence != staticlint.Exact {
					return fmt.Errorf("stream at %#x is %v", s.IP, s.Confidence)
				}
			}
			cfg := cache.DefaultConfig()
			cfg.Prefetch = false
			if rp := staticlint.PredictReuse(a, cfg); len(rp.Nests) != 1 || len(rp.Skipped) != 0 {
				return fmt.Errorf("%d nests predicted, %d skipped", len(rp.Nests), len(rp.Skipped))
			}
			return nil
		})},
	{"straight-line + unclosed loops: an Exact stride-0 access outside loops, two loops closed at the end",
		in(fourThreads, op(opLoad, ixNone, 0), op(opLoop, 0, 1), op(opStore, ixTid, 255),
			op(opLoop, 0, 6), op(opLoadAt, ixIV+1, 33)),
		streams(func(a *staticlint.Analysis) error {
			if s := a.Streams[0]; s.Loop != nil || s.Confidence != staticlint.Exact || s.Stride != 0 {
				return fmt.Errorf("first load: loop %v, %v, stride %d", s.Loop, s.Confidence, s.Stride)
			}
			if n := a.Loops.NumLoops(); n != 2 {
				return fmt.Errorf("%d loops", n)
			}
			return nil
		})},
	{"depth-capped nest: the fourth loop is dropped",
		in(0, op(opLoop, 0, 2), op(opLoop, 0, 2), op(opLoop, 0, 2), op(opLoop, 0, 2), op(opLoad, ixIV+2, 7)),
		streams(func(a *staticlint.Analysis) error {
			depth := 0
			for _, l := range a.Loops.AllLoops() {
				depth = max(depth, l.Depth)
			}
			if n := a.Loops.NumLoops(); n != 3 || depth != 3 {
				return fmt.Errorf("%d loops, %d deep", n, depth)
			}
			return nil
		})},
}

// legalitySeeds seed FuzzLegality; each names the verdict of recs.
var legalitySeeds = []seed{
	{"field-local loop: SPLIT-SAFE",
		in(0, op(opLoop, 0, 5), op(opLoad, ixIV, 9), op(opStore, ixIV, 2), op(opClose, 0, 0)),
		verdict(legality.SplitSafe, 2, nil)},
	{"xor-obfuscated pointer: FROZEN",
		in(0, op(opLoop, 0, 3), op(opPointer, ixIV, 1), op(opClose, 0, 0)),
		verdict(legality.Frozen, 1, nil)},
	{"spill then chase: the chase re-attributes, SPLIT-SAFE",
		in(0, op(opPointer, ixNone, 2), op(opLoop, 0, 4), op(opReload, 0, 0), op(opClose, 0, 0)),
		verdict(legality.SplitSafe, 2, nil)},
	{"interior spill: FROZEN",
		in(0, op(opLoop, 0, 2), op(opPointer, ixIV, 0x86), op(opClose, 0, 0), op(opLoad, ixNone, 1)),
		verdict(legality.Frozen, 2, nil)},
	{"nest + reload + straddling load: KEEP-TOGETHER {len, crc}",
		in(0, op(opLoop, 0, 2), op(opLoop, 0, 8), op(opLoad, ixIV+1, 17), op(opStore, ixIV, 4),
			op(opLoadAt, ixIV+1, 3+2*16), op(opClose, 0, 0), op(opReload, 0, 1), op(opClose, 0, 0)),
		verdict(legality.KeepTogether, 4, [][2]int{{2, 3}})},
}

// sameAddress stores to one record from every thread.
var sameAddress = in(fourThreads, op(opStore, ixNone, 0), op(opStore, ixNone, 0), op(opStore, ixNone, 1))

// sharingSeeds seed FuzzSharingClassifier; each names a claim of the
// four-thread body's role.
var sharingSeeds = []seed{
	{"loop of stores: an exact write-shared claim",
		in(fourThreads, op(opLoop, 0, 5), op(opStore, ixIV, 9), op(opClose, 0, 0)),
		claim("(whole object)", sharing.ClassWriteShared, sharing.Exact)},
	{"tid-indexed store+load: an exact thread-private claim, falsely shared",
		in(fourThreads, op(opStore, ixTid, 0), op(opLoad, ixTid, 0)),
		func(p *prog.Program, phases [][]vm.ThreadSpec) error {
			a, err := sharing.Analyze(p, phases, 64)
			if err != nil {
				return err
			}
			if len(a.FalseShares) != 1 {
				return fmt.Errorf("%d false-sharing findings", len(a.FalseShares))
			}
			return claim("a", sharing.ClassPrivate, sharing.Exact)(p, phases)
		}},
	{"nest: inner store, outer load: an exact read-shared claim",
		in(fourThreads, op(opLoop, 0, 3), op(opLoop, 0, 6), op(opStore, ixTid, 0), op(opClose, 0, 0),
			op(opLoad, ixNone, 1), op(opClose, 0, 0)),
		claim("b", sharing.ClassReadShared, sharing.Exact)},
	{"same-address stores: write-shared, read-shared once demoted", sameAddress,
		func(p *prog.Program, phases [][]vm.ThreadSpec) error {
			if err := claim("a", sharing.ClassWriteShared, sharing.Exact)(p, phases); err != nil {
				return err
			}
			return claim("a", sharing.ClassReadShared, sharing.Exact)(gen(sameAddress, true))
		}},
	{"depth-capped nest: a whole-object write leaves a hint claim",
		in(fourThreads, op(opLoop, 0, 2), op(opLoop, 0, 2), op(opLoop, 0, 2), op(opLoop, 0, 2),
			op(opStoreAt, ixIV, 7), op(opLoad, ixTid, 255), op(opClose, 0, 0)),
		claim("crc", sharing.ClassPrivate, sharing.Hint)},
}

// engineSeed is one FuzzEngines input: the program, the sampling period
// (less one), the sampler seed, the statistical window (less one) and
// the per-phase instruction cap (0 for none).
type engineSeed struct {
	seed
	period    uint16
	sampler   uint8
	window    uint8
	maxInstrs uint32
}

// Programs of 2,048 and 12,288 body accesses: a chunk and the ring.
var (
	oneChunk = in(0, op(opLoop, 0, 6), op(opLoop, 0, 13), op(opLoop, 0, 20),
		op(opLoad, ixIV+2, 0), op(opLoadAt, ixIV+1, 3), op(opStore, ixIV, 1), op(opPointer, ixIV+2, 0))
	wholeRing = in(fourThreads, op(opLoop, 0, 6), op(opLoop, 0, 13), op(opLoop, 0, 20),
		op(opLoad, ixIV+2, 0), op(opStore, ixIV+1, 1), op(opLoadAt, ixIV, 19), op(opStoreAt, ixTid, 3),
		op(opPointer, ixIV+2, 1), op(opLoad, ixTid, 2))
)

// midChunkCap stops oneChunk's body after 1,216 of its 2,048 accesses.
const midChunkCap = 2500

var engineSeeds = []engineSeed{
	{seed{"no memory access", in(fourThreads, op(opLoop, 0, 6), op(opClose, 0, 0)),
		retires(0, 0)}, 99, 1, 63, 0},
	{seed{"2,048 body accesses: one chunk exactly", oneChunk,
		retires(0, 2048)}, 99, 2, 7, 0},
	{seed{"12,288 body accesses: the whole ring exactly", wholeRing,
		retires(0, 12288)}, 299, 3, 31, 0},
	{seed{"MaxInstrs stops the body mid-chunk", oneChunk,
		func(p *prog.Program, phases [][]vm.ThreadSpec) error {
			n, err := accesses(p, phases, midChunkCap)
			if err == nil || !strings.Contains(err.Error(), "instruction budget exceeded") {
				return fmt.Errorf("error %v", err)
			}
			if last := n[len(n)-1]; last%2048 == 0 {
				return fmt.Errorf("stopped after %d accesses, a chunk boundary", last)
			}
			return nil
		}}, 99, 4, 15, midChunkCap},
	{seed{"idle set-up thread: no access, then four body threads", in(fourThreads, op(opLoop, 0, 6),
		op(opStore, ixTid, 0), op(opLoad, ixIV, 1), op(opClose, 0, 0)),
		retires(0, 64)}, 7, 5, 0, 0},
	{seed{"every op on four threads: set-up spills, the body reloads", in(fourThreads, op(opLoop, 0, 5),
		op(opPointer, ixTid, 3), op(opReload, 0, 1), op(opStoreAt, ixIV, 35), op(opClose, 0, 0)),
		retires(numSlots, 4*7*5)}, 11, 6, 3, 0},
}

// streams checks the static stride analysis of the program.
func streams(check func(*staticlint.Analysis) error) func(*prog.Program, [][]vm.ThreadSpec) error {
	return func(p *prog.Program, _ [][]vm.ThreadSpec) error {
		a, err := staticlint.AnalyzeProgram(p)
		if err != nil {
			return err
		}
		return check(a)
	}
}

// verdict wants recs to get v from n attributed accesses, with the
// keep-together pairs given.
func verdict(v legality.Verdict, n int, pairs [][2]int) func(*prog.Program, [][]vm.ThreadSpec) error {
	return func(p *prog.Program, _ [][]vm.ThreadSpec) error {
		a, err := legality.AnalyzeProgram(p, nil)
		if err != nil {
			return err
		}
		got := a.Objects[0]
		if got.Verdict != v || got.Streams != n || fmt.Sprint(got.Pairs) != fmt.Sprint(pairs) {
			return fmt.Errorf("recs is %v with pairs %v from %d accesses", got.Verdict, got.Pairs, got.Streams)
		}
		return nil
	}
}

// claim wants the body's role to claim class c at confidence conf for
// the field of recs named field.
func claim(field string, c sharing.Class, conf sharing.Conf) func(*prog.Program, [][]vm.ThreadSpec) error {
	return func(p *prog.Program, phases [][]vm.ThreadSpec) error {
		a, err := sharing.Analyze(p, phases, 64)
		if err != nil {
			return err
		}
		for _, cl := range a.Claims {
			if cl.ObjName == "recs" && cl.FieldName == field {
				if cl.Class != c || cl.Conf != conf {
					return fmt.Errorf("%s is %v/%v", field, cl.Class, cl.Conf)
				}
				return nil
			}
		}
		return fmt.Errorf("no claim on %s", field)
	}
}

// retires wants each phase to retire the given accesses.
func retires(want ...uint64) func(*prog.Program, [][]vm.ThreadSpec) error {
	return func(p *prog.Program, phases [][]vm.ThreadSpec) error {
		n, err := accesses(p, phases, 0)
		if err != nil {
			return err
		}
		if fmt.Sprint(n) != fmt.Sprint(want) {
			return fmt.Errorf("phases retire %v accesses, want %v", n, want)
		}
		return nil
	}
}

// counter counts accesses.
type counter uint64

func (c *counter) OnAccess(*vm.MemEvent) uint64 { *c++; return 0 }

// accesses runs the phases on one machine, capped at maxInstrs per phase,
// and returns the accesses each retired, up to the first error.
func accesses(p *prog.Program, phases [][]vm.ThreadSpec, maxInstrs uint64) ([]uint64, error) {
	m, err := vm.NewMachine(p, cache.DefaultConfig(), vm.CoresFor(phases), vm.Config{MaxInstrs: maxInstrs})
	if err != nil {
		return nil, err
	}
	var c counter
	m.Observer = &c
	var n []uint64
	for _, ph := range phases {
		c = 0
		_, err := m.Run(ph)
		n = append(n, uint64(c))
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestSeedOutcomes checks that every seed reaches the outcome its name
// promises.
func TestSeedOutcomes(t *testing.T) {
	all := append(append(append([]seed(nil), resolverSeeds...), legalitySeeds...), sharingSeeds...)
	for _, s := range engineSeeds {
		all = append(all, s.seed)
	}
	for _, s := range all {
		t.Run(s.name, func(t *testing.T) {
			p, phases := gen(s.data, false)
			if p == nil {
				t.Fatal("input rejected")
			}
			if err := s.reaches(p, phases); err != nil {
				t.Error(err)
			}
		})
	}
}
