package sharing_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/sharing"
	"repro/internal/vm"
)

// buildFuzzProgram lowers a byte-encoded loop body into a 4-thread
// worker over one typed global. Byte pairs (op, arg) encode: op%4 == 0
// load, 1 store, 2 open a nested loop (trip count and step from arg), 3
// close the current loop. Addresses are base + idx*scale + disp where
// idx cycles through the loop ivs and the thread-id argument, bounded so
// every access stays inside the global. demote turns every store into a
// load, which may only remove write evidence.
func buildFuzzProgram(data []byte, demote bool) (*prog.Program, [][]vm.ThreadSpec) {
	b := prog.NewBuilder("fuzz")
	st := &prog.StructType{
		Name: "_Fz",
		Size: 32,
		Fields: []prog.PhysField{
			{Name: "a", Offset: 0, Size: 8},
			{Name: "b", Offset: 8, Size: 8},
			{Name: "c", Offset: 16, Size: 16},
		},
	}
	g := b.Global("fz", 1<<16, b.Type(st))
	worker := b.Func("worker", "fuzz.c")
	base, x := b.R(), b.R()
	b.GAddr(base, g)
	var ivs []isa.Reg
	loops := 0
	pos := 0
	var walk func(depth int)
	walk = func(depth int) {
		for pos+1 < len(data) {
			op, arg := data[pos], data[pos+1]
			pos += 2
			// Index register: the thread id, a loop iv, or none.
			idx := isa.ArgReg0
			if n := int(arg>>4) % (len(ivs) + 2); n > 0 {
				if n == 1 {
					idx = isa.RZ
				} else {
					idx = ivs[n-2]
				}
			}
			scale := int(arg%16) * 8
			disp := int64(arg%64) * 8
			switch op % 4 {
			case 0:
				b.Load(x, base, idx, scale, disp, 8)
			case 1:
				if demote {
					b.Load(x, base, idx, scale, disp, 8)
				} else {
					b.Store(x, base, idx, scale, disp, 8)
				}
			case 2:
				if depth >= 3 || loops >= 6 {
					continue
				}
				loops++
				iv := b.R()
				trips := int64(arg%7) + 2
				step := int64(arg%3) + 1
				ivs = append(ivs, iv)
				b.ForRange(iv, 0, trips*step, step, func() { walk(depth + 1) })
				ivs = ivs[:len(ivs)-1]
			case 3:
				if depth > 0 {
					return
				}
			}
		}
	}
	walk(0)
	b.Ret()
	main := b.Func("main", "fuzz.c")
	b.Halt()
	b.SetEntry(main)
	p, err := b.Program()
	if err != nil {
		return nil, nil
	}
	phases := [][]vm.ThreadSpec{{
		{Fn: worker, Args: []int64{0, 4}, Core: 0},
		{Fn: worker, Args: []int64{1, 4}, Core: 1},
		{Fn: worker, Args: []int64{2, 4}, Core: 2},
		{Fn: worker, Args: []int64{3, 4}, Core: 3},
	}}
	return p, phases
}

func classRank(c sharing.Class) int {
	switch c {
	case sharing.ClassPrivate:
		return 1
	case sharing.ClassReadShared:
		return 2
	case sharing.ClassWriteShared:
		return 3
	}
	return 0
}

// FuzzSharingClassifier drives the sharing analysis with random
// thread-indexed loop bodies and checks three properties:
//
//  1. Analyze never panics or errors on a well-formed program;
//  2. soundness: cross-checking the claims against an actual run's
//     coherence observations yields zero mismatches — no exact claim is
//     ever contradicted by the machine;
//  3. monotonicity: demoting every store to a load (strictly less write
//     evidence) never RAISES the class of a claim that was exact, since
//     the class order private < read-shared < write-shared ranks by
//     sharing evidence.
func FuzzSharingClassifier(f *testing.F) {
	f.Add([]byte{2, 5, 1, 9, 3, 0})                     // loop of stores
	f.Add([]byte{1, 17, 0, 17})                         // tid-indexed store+load
	f.Add([]byte{2, 3, 2, 8, 1, 33, 3, 0, 0, 4, 3, 0})  // nest: inner store, outer load
	f.Add([]byte{1, 0, 1, 64, 1, 128})                  // same-address stores
	f.Add([]byte{2, 2, 2, 2, 2, 2, 1, 7, 0, 255, 3, 0}) // depth-capped nest

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			return
		}
		p, phases := buildFuzzProgram(data, false)
		if p == nil {
			return // malformed program rejected by the builder, fine
		}
		a, err := sharing.Analyze(p, phases, 64) // must not panic
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}

		obs, err := sharing.VerifyRun(p, phases, cache.DefaultConfig())
		if err != nil {
			t.Fatalf("VerifyRun: %v", err)
		}
		rep := sharing.CrossCheck(a, obs)
		if rep.Failed() {
			for _, cc := range rep.Claims {
				if cc.Status == sharing.CheckMismatch {
					c := cc.Claim
					t.Errorf("unsound claim %s.%s %s/%s: %s", c.ObjName, c.FieldName, c.Class, c.Conf, cc.Detail)
				}
			}
			t.Fatalf("%d exact claim(s) contradicted by the coherence observer", rep.Mismatches)
		}

		pr, prPhases := buildFuzzProgram(data, true)
		if pr == nil {
			t.Fatal("store-demoted twin rejected but original accepted")
		}
		ar, err := sharing.Analyze(pr, prPhases, 64)
		if err != nil {
			t.Fatalf("Analyze demoted twin: %v", err)
		}
		for _, c := range a.Claims {
			if c.Conf != sharing.Exact {
				continue // hint classes may legitimately move either way
			}
			cr := ar.FindClaim(c.Role.Phase, c.Global, c.Field)
			if cr == nil {
				continue // the bucket may dissolve (e.g. merged into whole-object)
			}
			if classRank(cr.Class) > classRank(c.Class) {
				t.Fatalf("removing writes raised %s.%s from %s to %s",
					c.ObjName, c.FieldName, c.Class, cr.Class)
			}
		}
	})
}
