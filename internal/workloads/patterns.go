package workloads

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// patterns.go is the access-pattern library the suite stand-ins compose:
// each helper emits one loop nest with a characteristic memory behaviour
// into the current function of a builder. All helpers leave the builder's
// current block at the loop exit.

// emitStream emits: for i { dst[i] = a[i] + b[i] } — unit-stride
// bandwidth-bound (STREAM triad shape).
func emitStream(b *prog.Builder, dst, a, c isa.Reg, n int64, line int) {
	b.AtLine(line)
	i, x, y := b.R(), b.R(), b.R()
	b.ForRange(i, 0, n, 1, func() {
		b.Load(x, a, i, 8, 0, 8)
		b.Load(y, c, i, 8, 0, 8)
		b.Add(x, x, y)
		b.Store(x, dst, i, 8, 0, 8)
	})
	b.Release(i, x, y)
}

// emitStencil emits a 1-D 3-point stencil: dst[i] = s[i-1]+s[i]+s[i+1].
func emitStencil(b *prog.Builder, dst, src isa.Reg, n int64, line int) {
	b.AtLine(line)
	i, x, y := b.R(), b.R(), b.R()
	b.ForRange(i, 1, n-1, 1, func() {
		b.Load(x, src, i, 8, -8, 8)
		b.Load(y, src, i, 8, 0, 8)
		b.Add(x, x, y)
		b.Load(y, src, i, 8, 8, 8)
		b.Add(x, x, y)
		b.Store(x, dst, i, 8, 0, 8)
	})
	b.Release(i, x, y)
}

// emitGather emits: sum += a[idx[i]] — an index-driven irregular read
// stream (sparse/graph shape).
func emitGather(b *prog.Builder, a, idx, sum isa.Reg, n int64, line int) {
	b.AtLine(line)
	i, j, x := b.R(), b.R(), b.R()
	b.ForRange(i, 0, n, 1, func() {
		b.Load(j, idx, i, 8, 0, 8)
		b.Load(x, a, j, 8, 0, 8)
		b.Add(sum, sum, x)
	})
	b.Release(i, j, x)
}

// emitScatterInc emits: h[key[i]] += 1 — histogram updates with
// read-modify-write on an irregular target.
func emitScatterInc(b *prog.Builder, h, key isa.Reg, n int64, line int) {
	b.AtLine(line)
	i, j, x := b.R(), b.R(), b.R()
	b.ForRange(i, 0, n, 1, func() {
		b.Load(j, key, i, 8, 0, 8)
		b.Load(x, h, j, 8, 0, 8)
		b.AddI(x, x, 1)
		b.Store(x, h, j, 8, 0, 8)
	})
	b.Release(i, j, x)
}

// emitChase emits: p = head; while (p != 0) { p = *p } — the dependent
// pointer chase (linked-list / mcf shape). head holds the first node's
// address.
func emitChase(b *prog.Builder, head isa.Reg, line int) {
	b.AtLine(line)
	p := b.R()
	b.Mov(p, head)
	b.WhileNZ(p, func() {
		b.Load(p, p, isa.RZ, 1, 0, 8)
	})
	b.Release(p)
}

// emitReduce emits: sum += a[i] with some FP work per element
// (compute-leaning reduction).
func emitReduce(b *prog.Builder, a, sum isa.Reg, n int64, flops int, line int) {
	b.AtLine(line)
	i, x := b.R(), b.R()
	b.ForRange(i, 0, n, 1, func() {
		b.Load(x, a, i, 8, 0, 8)
		for f := 0; f < flops; f++ {
			b.FMul(x, x, x)
		}
		b.FAdd(sum, sum, x)
	})
	b.Release(i, x)
}

// emitRowWalk emits a blocked 2-D walk dst[r] += m[r*cols + c] over all
// rows/cols — a matrix-traversal shape (lud/gemm-like without the O(n³)).
func emitRowWalk(b *prog.Builder, m, dst isa.Reg, rows, cols int64, line int) {
	b.AtLine(line)
	r, c, x, acc, rowBase := b.R(), b.R(), b.R(), b.R(), b.R()
	b.ForRange(r, 0, rows, 1, func() {
		b.MovI(acc, 0)
		b.MulI(rowBase, r, cols*8)
		b.Add(rowBase, rowBase, m)
		b.ForRange(c, 0, cols, 1, func() {
			b.Load(x, rowBase, c, 8, 0, 8)
			b.Add(acc, acc, x)
		})
		b.Store(acc, dst, r, 8, 0, 8)
	})
	b.Release(r, c, x, acc, rowBase)
}

// emitColWalk walks the same matrix column-major — the large-stride
// pattern whose locality is poor (transpose/NW shape).
func emitColWalk(b *prog.Builder, m, dst isa.Reg, rows, cols int64, line int) {
	b.AtLine(line)
	r, c, x, acc, colBase := b.R(), b.R(), b.R(), b.R(), b.R()
	b.ForRange(c, 0, cols, 1, func() {
		b.MovI(acc, 0)
		b.MulI(colBase, c, 8)
		b.Add(colBase, colBase, m)
		b.ForRange(r, 0, rows, 1, func() {
			b.Load(x, colBase, r, int(cols*8), 0, 8)
			b.Add(acc, acc, x)
		})
		b.Store(acc, dst, c, 8, 0, 8)
	})
	b.Release(r, c, x, acc, colBase)
}

// initLinear fills a word array with a[i] = i (usable as identity index).
func initLinear(b *prog.Builder, base isa.Reg, n int64, line int) {
	b.AtLine(line)
	i := b.R()
	b.ForRange(i, 0, n, 1, func() {
		b.Store(i, base, i, 8, 0, 8)
	})
	b.Release(i)
}

// initScrambled fills idx[i] with a permutation-ish scramble
// (i*prime mod n) for gather/scatter targets.
func initScrambled(b *prog.Builder, base isa.Reg, n int64, line int) {
	b.AtLine(line)
	i, j, nReg := b.R(), b.R(), b.R()
	b.MovI(nReg, n)
	b.ForRange(i, 0, n, 1, func() {
		b.MulI(j, i, 40503) // odd constant scrambles well enough
		b.Rem(j, j, nReg)
		b.Store(j, base, i, 8, 0, 8)
	})
	b.Release(i, j, nReg)
}

// initChain links list[i] → list[i+stridePerm] over a scrambled order so
// chases are cache-hostile: node i's first word holds the address of the
// next node in a permuted sequence; the last points to 0.
func initChain(b *prog.Builder, base isa.Reg, n, nodeSize int64, line int) {
	b.AtLine(line)
	// next(i) = (i*step) mod n with step coprime to n gives one cycle
	// through all nodes; store addresses so the chase is address-based.
	i, cur, nxt, addr, nReg := b.R(), b.R(), b.R(), b.R(), b.R()
	b.MovI(nReg, n)
	b.MovI(cur, 0)
	b.ForRange(i, 0, n-1, 1, func() {
		b.AddI(nxt, cur, 40503%max(n, 1))
		b.Rem(nxt, nxt, nReg)
		b.MulI(addr, nxt, nodeSize)
		b.Add(addr, addr, base)
		// list[cur].next = &list[nxt]
		tmp := b.R()
		b.MulI(tmp, cur, nodeSize)
		b.Add(tmp, tmp, base)
		b.Store(addr, tmp, isa.RZ, 1, 0, 8)
		b.Release(tmp)
		b.Mov(cur, nxt)
	})
	// Terminate the cycle at the last visited node.
	tmp := b.R()
	b.MulI(tmp, cur, nodeSize)
	b.Add(tmp, tmp, base)
	b.Store(isa.RZ, tmp, isa.RZ, 1, 0, 8)
	b.Release(tmp)
	b.Release(i, cur, nxt, addr, nReg)
}
