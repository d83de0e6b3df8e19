package rns

import (
	"fmt"
	"math/big"
	"sync"

	"mqxgo/internal/ring"
)

// This file implements the RNS base-management trio that a BFV-style
// homomorphic multiply needs on top of the tower machinery in poly.go,
// following the BEHZ construction [Bajard-Eynard-Hasan-Zucca 2016]:
//
//   - BaseConverter: the approximate fast base conversion FastBConv from a
//     base Q to a disjoint base P. Given residues x_i of x in [0, Q), it
//     computes residues of x + alpha*Q in base P for some overshoot
//     0 <= alpha < k. The overshoot is the defining trade of FastBConv: no
//     per-coefficient big-integer reconstruction, just k scale-accumulate
//     spans per output tower, and the alpha*Q error is either harmless
//     (it vanishes mod Q, and divides down to an additive error < k after
//     a divide-by-Q rescale) or repaired by the exact converters below.
//   - MontBaseConverter: FastBConv with BEHZ's small Montgomery (m~)
//     correction, which bounds the converted value to x or x - Q.
//   - SKConverter: the exact Shenoy-Kumaresan conversion out of an
//     extension base whose last tower is a redundant modulus m_sk. Because
//     the converted value's residue mod m_sk is carried alongside base P,
//     the FastBConv overshoot gamma can be recovered exactly
//     (gamma = (FastBConv(y) - y) * P^-1 mod m_sk, valid while
//     gamma < m_sk) and subtracted, so values |y| < P/2 convert without
//     error — the step that brings a rescaled ciphertext product back to
//     base Q bit-exactly.
//   - Rescaler: divide-and-round by the last tower of a base
//     (round(x / q_{k-1}) into the prefix base), the BGV/CKKS-style
//     modulus-switch primitive.
//
// The three converters are pure span-kernel pipelines over the plan
// kernels (ScalarMulSpan / ScaleAddSpan), so the kernel tier selected at
// plan build (scalar, AVX2 or AVX-512) runs every conversion pass. The
// Shoup multiply underlying them is exact for ANY 64-bit multiplicand,
// which is what lets a digit z_i < q_i feed a tower with a smaller prime
// p_j, and what makes every entry point tolerant of lazy [0, 2q) inputs.
// Each output tower is one span dot product: a ScalarMulInto of the first
// term row and a ScaleAddInto per further row. The corrections of the
// exact converters enter that dot product as one more term row (the
// Montgomery digit rho, the Shenoy-Kumaresan overshoot gamma) with its
// own precomputed weight; beyond it, only the Montgomery converter adds
// one constant per output tower. With pooled scratch, all conversions
// (and the Rescaler) are allocation-free in steady state.

// convScratch pools the digit rows (shaped like the source base) and the
// correction row a conversion needs. terms lists the span rows of one
// output tower's dot product (the digit rows, then the correction row
// gamma); rows is only populated by the Rescaler, whose NTT-resident path
// needs one coefficient-domain row per prefix tower.
type convScratch struct {
	z     Poly
	gamma []uint64
	terms [][]uint64
	rows  [][]uint64
}

// newTermScratch pools the first k digit rows of a from-shaped Poly plus
// the correction row, listed in that order as the dot-product terms.
func newTermScratch(from *Context, k int) *convScratch {
	sc := &convScratch{z: from.NewPoly(), gamma: make([]uint64, from.N)}
	sc.terms = append(sc.z.Res[:k:k], sc.gamma)
	return sc
}

// spanDotInto writes dst = sum_t rows[t]*w[t] mod p on one tower's span
// kernels: a ScalarMulInto of the first row, then one ScaleAddInto per
// further row. Rows may hold any 64-bit values (the Shoup multiply is
// exact for them); dst is canonical.
func spanDotInto(plan *ring.Plan[uint64, ring.Shoup64], dst []uint64, rows [][]uint64, w []uint64) {
	plan.ScalarMulInto(dst, rows[0], w[0])
	for t := 1; t < len(rows); t++ {
		plan.ScaleAddInto(dst, dst, rows[t], w[t])
	}
}

// weightRows returns, for every tower p_j of to, the row
// [(c_i * scale) mod p_j]_i of weights c_i; scale may be nil for 1.
func weightRows(to *Context, c []*big.Int, scale *big.Int) [][]uint64 {
	rows := make([][]uint64, len(to.Mods))
	t := new(big.Int)
	for j, mod := range to.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		rows[j] = make([]uint64, len(c))
		for i, ci := range c {
			t.Set(ci)
			if scale != nil {
				t.Mul(t, scale)
			}
			rows[j][i] = t.Mod(t, qb).Uint64()
		}
	}
	return rows
}

// BaseConverter converts polynomials from base Q (the from context) to a
// base P (the to context) by approximate fast base conversion.
type BaseConverter struct {
	from, to *Context

	// m[j][i] = (Q/q_i) mod p_j, the cross-base CRT weight matrix.
	m [][]uint64

	scratch sync.Pool
}

// NewBaseConverter precomputes the conversion tables between two contexts
// of the same transform size.
func NewBaseConverter(from, to *Context) (*BaseConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	bc := &BaseConverter{from: from, to: to, m: weightRows(to, from.qi, nil)}
	bc.scratch.New = func() any { return &convScratch{z: from.NewPoly()} }
	return bc, nil
}

// digitsInto fills z with the fast-base-conversion digits of src:
// z_i = x_i * (Q/q_i)^-1 mod q_i. Inputs may be lazy ([0, 2q_i)); digits
// are canonical.
func (bc *BaseConverter) digitsInto(z, src Poly) {
	for i := range bc.from.Mods {
		bc.from.Plans[i].Generic().ScalarMulInto(z.Res[i], src.Res[i], bc.from.qiInv[i])
	}
}

// accumulateInto folds the digit rows z against the weight matrix into
// every tower of dst: dst_j = sum_i z_i * m[j][i] mod p_j, one span dot
// product per output tower.
func (bc *BaseConverter) accumulateInto(dst, z Poly) {
	for j := range bc.to.Mods {
		spanDotInto(bc.to.Plans[j].Generic(), dst.Res[j], z.Res, bc.m[j])
	}
}

// ConvertInto writes the fast base conversion of src (in the from base)
// into dst (in the to base): residues of x + alpha*Q with 0 <= alpha < k,
// where x in [0, Q) is the value src represents and k is the source tower
// count. src rows may carry lazy [0, 2q) residues; dst is canonical.
// Steady-state it allocates nothing.
//
//mqx:hotpath
func (bc *BaseConverter) ConvertInto(dst, src Poly) error {
	if err := bc.from.checkPoly(src); err != nil {
		return err
	}
	if err := bc.to.checkPoly(dst); err != nil {
		return err
	}
	sc := bc.scratch.Get().(*convScratch)
	bc.digitsInto(sc.z, src)
	bc.accumulateInto(dst, sc.z)
	bc.scratch.Put(sc)
	return nil
}

// ConvertDigitsInto is ConvertInto with CALLER-COMPUTED digits: z_i must
// already hold the fast-base-conversion digits [x_i * (Q/q_i)^-1]_{q_i}.
// It exists for callers that can fuse the digit scalar into an adjacent
// pass (the resident BEHZ divide-and-round folds T, the rounding offset,
// and the digit constant into ONE span per tower instead of three);
// the accumulation is unchanged. dst is canonical; allocates nothing.
//
//mqx:hotpath
func (bc *BaseConverter) ConvertDigitsInto(dst, z Poly) error {
	if err := bc.from.checkPoly(z); err != nil {
		return err
	}
	if err := bc.to.checkPoly(dst); err != nil {
		return err
	}
	bc.accumulateInto(dst, z)
	return nil
}

// MontBaseConverter is the m-tilde-corrected fast base conversion of BEHZ
// §3.2 (the small Montgomery reduction SmMRq): it converts x in base Q to a
// base P with the FastBConv overshoot alpha*Q (0 <= alpha < k) removed, at
// the cost of one extra residue channel modulo a small auxiliary modulus
// m~ and one extra span term per output tower.
//
// The trick, folded into the digit constants so no caller-side scaling is
// needed: instead of converting x, convert X = [m~ * x]_Q (its digits are
// just x_i * (m~ * (Q/q_i)^-1) mod q_i, one fused scalar multiply per
// tower). The weighted digit sum V = sum_i z_i*(Q/q_i) equals
// m~*x + (alpha - beta)*Q for overshoots alpha < k, beta < m~, and V's
// residue modulo m~ is computable from the digits alone. Choosing
// r = [-V * Q^-1]_m~, centered to r' in (-m~/2, m~/2], makes V + r'*Q
// divisible by m~, and
//
//	y = (V + r'*Q) / m~ = x + gamma*Q  with gamma in {-1, 0}
//
// (the multiple of m~ nearest alpha - beta + r' is 0 or -m~ because
// alpha < m~/2). So the converted operand's magnitude is bounded by Q
// instead of k*Q — the operand overshoot PR 4 documented and absorbed into
// the multiply noise constant is gone, which is what lets
// fhe.MulNoiseBoundBits tighten its conversion term.
//
// The correction is folded into the conversion weights. The centered r'
// is shifted to the non-negative digit rho = r' + m~/2 in [1, m~],
// computed branchlessly from r as rho = ((r + m~/2 - 1) & (m~-1)) + 1, so
// every output tower is k+1 span terms plus one constant:
//
//	dst_j = sum_i z_i*w_ji + rho*u_j + c_j  mod p_j
//	w_ji = (Q/q_i)*m~^-1,  u_j = Q*m~^-1,  c_j = -(m~/2)*u_j
//
// Like BaseConverter, every step is exact for the Shoup span kernels
// (digits and accumulation), inputs may be lazy ([0, 2q)), and steady-state
// conversions allocate nothing.
type MontBaseConverter struct {
	from, to *Context
	mt       uint64 // m~, a power of two > 2*k

	digitMul []uint64   // (m~ * (Q/q_i)^-1) mod q_i: digits of [m~ x]_Q
	w        [][]uint64 // w[j] = [w_j0 .. w_j(k-1), u_j], the k+1 term weights
	c        []uint64   // c_j = -(m~/2) * Q * m~^-1 mod p_j
	mRowMt   []uint64   // (Q/q_i) mod m~
	negQInv  uint64     // (-Q^-1) mod m~

	scratch sync.Pool
}

// NewMontBaseConverter precomputes the m-tilde-corrected conversion tables.
// mtilde must be a power of two with 2*k < mtilde <= 2^31 (k the source
// tower count); 1<<16 is a safe default for any basis this package builds.
func NewMontBaseConverter(from, to *Context, mtilde uint64) (*MontBaseConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if mtilde == 0 || mtilde&(mtilde-1) != 0 || mtilde > 1<<31 {
		return nil, fmt.Errorf("rns: m~ %d is not a power of two <= 2^31", mtilde)
	}
	k := from.Channels()
	if mtilde <= 2*uint64(k) {
		return nil, fmt.Errorf("rns: m~ %d too small for %d towers", mtilde, k)
	}
	bc := &MontBaseConverter{from: from, to: to, mt: mtilde}
	t := new(big.Int)
	mtBig := new(big.Int).SetUint64(mtilde)
	// Q is odd (product of odd primes), so Q^-1 mod the power of two exists.
	qInvMt := new(big.Int).ModInverse(from.Q, mtBig)
	if qInvMt == nil {
		return nil, fmt.Errorf("rns: Q not invertible mod m~ %d", mtilde)
	}
	bc.negQInv = (mtilde - qInvMt.Uint64()) & (mtilde - 1)
	for i, mod := range from.Mods {
		if mod.Q <= mtilde {
			return nil, fmt.Errorf("rns: source prime %d not above m~ %d", mod.Q, mtilde)
		}
		bc.digitMul = append(bc.digitMul, mod.Mul(mtilde%mod.Q, from.qiInv[i]))
		bc.mRowMt = append(bc.mRowMt, t.Mod(from.qi[i], mtBig).Uint64())
	}
	// Rows of m~^-1 * [Q/q_0 .. Q/q_{k-1}, Q] mod p_j: the digit weights
	// w_ji with u_j appended as the rho term's weight.
	mtInv := new(big.Int).ModInverse(mtBig, to.Q) // to's primes are odd
	bc.w = weightRows(to, append(from.qi[:k:k], from.Q), mtInv)
	for j, mod := range to.Mods {
		bc.c = append(bc.c, mod.Neg(mod.Mul((mtilde/2)%mod.Q, bc.w[j][k])))
	}
	bc.scratch.New = func() any { return newTermScratch(from, k) }
	return bc, nil
}

// ConvertInto writes the m-tilde-corrected conversion of src into dst: for
// every coefficient x in [0, Q) of src, dst receives the residues of
// y = x + gamma*Q with gamma in {-1, 0} (so |y| < Q — no k*Q overshoot).
// src rows may carry lazy [0, 2q) residues; dst is canonical. Steady-state
// it allocates nothing.
//
//mqx:hotpath
func (bc *MontBaseConverter) ConvertInto(dst, src Poly) error {
	if err := bc.from.checkPoly(src); err != nil {
		return err
	}
	if err := bc.to.checkPoly(dst); err != nil {
		return err
	}
	sc := bc.scratch.Get().(*convScratch)
	z, rho := sc.z, sc.gamma
	k := bc.from.Channels()
	mask := bc.mt - 1
	// Digits of X = [m~ x]_Q, one fused scalar multiply per tower.
	for i := 0; i < k; i++ {
		bc.from.Plans[i].Generic().ScalarMulInto(z.Res[i], src.Res[i], bc.digitMul[i])
	}
	// r = [-V * Q^-1]_m~ per coefficient, from the digit residues mod m~.
	// Row-sequential accumulation with plain wrapping adds: m~ is a power
	// of two dividing 2^64, so overflow mod 2^64 preserves the residue
	// mod m~ and a single final mask suffices — same r, streaming passes
	// instead of a strided per-coefficient walk over the digit rows.
	clear(rho)
	for i := 0; i < k; i++ {
		zr := z.Res[i][:len(rho)]
		wmt := bc.mRowMt[i]
		for j := range rho {
			rho[j] += (zr[j] & mask) * wmt
		}
	}
	// rho = r' + m~/2 in [1, m~] for the centered r' in (-m~/2, m~/2].
	half := bc.mt / 2
	for j := range rho {
		r := ((rho[j] & mask) * bc.negQInv) & mask
		rho[j] = ((r + half - 1) & mask) + 1
	}
	for jt, mod := range bc.to.Mods {
		dr := dst.Res[jt]
		spanDotInto(bc.to.Plans[jt].Generic(), dr, sc.terms, bc.w[jt])
		c := bc.c[jt]
		for j := range dr {
			dr[j] = mod.Add(dr[j], c)
		}
	}
	bc.scratch.Put(sc)
	return nil
}

// SKConverter converts exactly from an extension base {p_0..p_{l-1}, m_sk}
// — the from context, whose LAST tower is the redundant Shenoy-Kumaresan
// modulus — to a base Q (the to context). P denotes the product of the
// first l towers only.
type SKConverter struct {
	from, to *Context
	l        int // towers of P (from minus the redundant modulus)

	piInv  []uint64   // (P/p_i)^-1 mod p_i
	w      [][]uint64 // w[j] = [(P/p_i) mod q_j .. , (-P) mod q_j], the l+1 term weights
	mSK    []uint64   // (P/p_i) mod m_sk
	pInvSK uint64     // P^-1 mod m_sk

	scratch sync.Pool
}

// NewSKConverter precomputes the exact-conversion tables. The from context
// must have at least two towers (base P plus the redundant modulus).
func NewSKConverter(from, to *Context) (*SKConverter, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if from.Channels() < 2 {
		return nil, fmt.Errorf("rns: Shenoy-Kumaresan base needs >= 2 towers, got %d", from.Channels())
	}
	l := from.Channels() - 1
	skMod := from.Mods[l]
	p := big.NewInt(1)
	for i := 0; i < l; i++ {
		p.Mul(p, new(big.Int).SetUint64(from.Mods[i].Q))
	}
	sk := &SKConverter{from: from, to: to, l: l}
	t := new(big.Int)
	// pis[i] = P/p_i, with -P appended as the gamma term's weight.
	pis := make([]*big.Int, l, l+1)
	for i := 0; i < l; i++ {
		mod := from.Mods[i]
		qb := new(big.Int).SetUint64(mod.Q)
		pis[i] = new(big.Int).Div(p, qb)
		sk.piInv = append(sk.piInv, mod.Inv(t.Mod(pis[i], qb).Uint64()))
		sk.mSK = append(sk.mSK, t.Mod(pis[i], new(big.Int).SetUint64(skMod.Q)).Uint64())
	}
	sk.pInvSK = skMod.Inv(t.Mod(p, new(big.Int).SetUint64(skMod.Q)).Uint64())
	sk.w = weightRows(to, append(pis, new(big.Int).Neg(p)), nil)
	sk.scratch.New = func() any { return newTermScratch(from, l) }
	return sk, nil
}

// ConvertInto writes the exact conversion of src into dst. src must hold
// consistent residues (across all from towers, including m_sk) of a
// centered value y with |y| < P/2; dst receives y mod q_j exactly —
// negative y wrap to q_j - |y| as ordinary signed residues do. src rows
// may carry lazy [0, 2q) residues. Steady-state it allocates nothing.
//
//mqx:hotpath
func (sk *SKConverter) ConvertInto(dst, src Poly) error {
	if err := sk.from.checkPoly(src); err != nil {
		return err
	}
	if err := sk.to.checkPoly(dst); err != nil {
		return err
	}
	sc := sk.scratch.Get().(*convScratch)
	z := sc.z
	// Digits over base P only.
	for i := 0; i < sk.l; i++ {
		sk.from.Plans[i].Generic().ScalarMulInto(z.Res[i], src.Res[i], sk.piInv[i])
	}
	// gamma = (FastBConv_{P->m_sk}(y) - y) * P^-1 mod m_sk: the exact
	// overshoot count, recoverable because 0 <= gamma <= l < m_sk.
	skMod := sk.from.Mods[sk.l]
	skPlan := sk.from.Plans[sk.l].Generic()
	g := sc.gamma
	spanDotInto(skPlan, g, z.Res[:sk.l], sk.mSK)
	ySK := src.Res[sk.l]
	q := skMod.Q
	for j := range g {
		v := ySK[j]
		if v >= q { // tolerate lazy inputs on the redundant tower
			v -= q
		}
		g[j] = skMod.Sub(g[j], v)
	}
	skPlan.ScalarMulInto(g, g, sk.pInvSK)
	// dst_j = sum_i z_i*(P/p_i) - gamma*P mod q_j: the gamma correction
	// is the (l+1)-th term of one span dot product per output tower.
	for j := range sk.to.Mods {
		spanDotInto(sk.to.Plans[j].Generic(), dst.Res[j], sc.terms, sk.w[j])
	}
	sk.scratch.Put(sc)
	return nil
}

// Rescaler divides polynomials in the from base by the from base's last
// tower prime, rounding to nearest, into the to base (the prefix of from
// with the last tower dropped).
type Rescaler struct {
	from, to *Context

	qkInv    []uint64 // q_{k-1}^-1 mod q_i
	qkInvPre []uint64 // Shoup precomputation of qkInv
	half     uint64   // floor(q_{k-1} / 2)
	halfRes  []uint64 // half mod q_i

	scratch sync.Pool
}

// NewRescaler validates that to is the prefix of from with the last tower
// dropped and precomputes the rescale constants. Every prefix prime must
// exceed half the dropped prime (true for any same-bit-width basis), so
// the dropped tower's remainder reduces with one conditional subtraction.
func NewRescaler(from, to *Context) (*Rescaler, error) {
	if from.N != to.N {
		return nil, fmt.Errorf("rns: base sizes differ: %d vs %d", from.N, to.N)
	}
	if to.Channels() != from.Channels()-1 {
		return nil, fmt.Errorf("rns: rescale target must drop exactly the last tower: %d vs %d towers",
			to.Channels(), from.Channels())
	}
	qk := from.Mods[from.Channels()-1].Q
	r := &Rescaler{from: from, to: to, half: qk / 2}
	for i, mod := range to.Mods {
		if mod.Q != from.Mods[i].Q {
			return nil, fmt.Errorf("rns: rescale target tower %d prime %d != source %d", i, mod.Q, from.Mods[i].Q)
		}
		if 2*mod.Q <= qk {
			return nil, fmt.Errorf("rns: rescale prefix prime %d too small for dropped prime %d", mod.Q, qk)
		}
		inv := mod.Inv(qk % mod.Q)
		r.qkInv = append(r.qkInv, inv)
		r.qkInvPre = append(r.qkInvPre, mod.ShoupPrecompute(inv))
		r.halfRes = append(r.halfRes, r.half%mod.Q)
	}
	r.scratch.New = func() any {
		return &convScratch{
			gamma: make([]uint64, from.N),
			rows:  ring.AllocBatch[uint64](from.N, to.Channels()),
		}
	}
	return r, nil
}

// RescaleInto writes round(x / q_{k-1}) into dst for every coefficient x
// of a: dst_i = (x_i + h - [x_{k-1} + h]_{q_{k-1}}) * q_{k-1}^-1 mod q_i
// with h = floor(q_{k-1}/2), the divide-and-round that drops the last
// tower. Input rows may be lazy ([0, 2q)); dst is canonical. dst rows may
// alias a's prefix rows. Steady-state it allocates nothing.
//
//mqx:hotpath
func (r *Rescaler) RescaleInto(dst, a Poly) error {
	if err := r.from.checkPoly(a); err != nil {
		return err
	}
	if err := r.to.checkPoly(dst); err != nil {
		return err
	}
	sc := r.scratch.Get().(*convScratch)
	u := sc.gamma
	qk := r.from.Mods[r.from.Channels()-1].Q
	last := a.Res[r.from.Channels()-1]
	// u[j] = (x_{k-1} + h) mod q_{k-1}: the rounded-division remainder.
	for j := range u {
		v := last[j]
		if v >= qk {
			v -= qk
		}
		s := v + r.half // < 2*q_k, no overflow: q_k < 2^62
		if s >= qk {
			s -= qk
		}
		u[j] = s
	}
	for i, mod := range r.to.Mods {
		q := mod.Q
		ar, dr := a.Res[i], dst.Res[i]
		h := r.halfRes[i]
		inv, pre := r.qkInv[i], r.qkInvPre[i]
		for j := range dr {
			v := ar[j]
			if v >= q {
				v -= q
			}
			w := u[j] // < q_k < 2q, one subtract reduces
			if w >= q {
				w -= q
			}
			t := mod.Sub(mod.Add(v, h), w)
			dr[j] = mod.MulShoup(t, inv, pre)
		}
	}
	r.scratch.Put(sc)
	return nil
}

// RescaleNTTInto is RescaleInto for an NTT-RESIDENT polynomial: a's towers
// hold twisted-evaluation (double-CRT) values and dst receives the rescale
// result in the same domain, without ever materializing the prefix towers
// in coefficient form. Only the dropped tower is inverse-transformed (its
// remainder u is inherently positional); each prefix tower then builds the
// correction polynomial w_i = (h_i - u) mod q_i, forward-transforms it,
// and fuses dst_i = (a_i + NTT(w_i)) * q_k^-1 pointwise — bit-identical to
// RescaleInto composed with transforms, by NTT linearity. The per-tower
// work (one transform plus the fused pass) dispatches through
// ring.ParallelChunks; workers follows the batch convention (0 means
// GOMAXPROCS, 1 is the sequential zero-alloc path). dst rows may alias a's
// prefix rows. Input rows may be lazy ([0, 2q)); dst is canonical.
func (r *Rescaler) RescaleNTTInto(dst, a Poly, workers int) error {
	if err := r.from.checkPoly(a); err != nil {
		return err
	}
	if err := r.to.checkPoly(dst); err != nil {
		return err
	}
	sc := r.scratch.Get().(*convScratch)
	u := sc.gamma
	kq := r.from.Channels() - 1
	qk := r.from.Mods[kq].Q
	r.from.Plans[kq].Generic().NegacyclicInverseInto(u, a.Res[kq])
	// u[j] = (x_{k-1} + h) mod q_{k-1}: the rounded-division remainder
	// (the inverse transform's output is canonical).
	for j := range u {
		s := u[j] + r.half // < 2*q_k, no overflow: q_k < 2^62
		if s >= qk {
			s -= qk
		}
		u[j] = s
	}
	towers := r.to.Channels()
	// Named method, not a closure: a closure shared with the parallel
	// branch would escape and put an allocation on the workers==1 path.
	if workers == 1 || towers <= 1 {
		for i := 0; i < towers; i++ {
			r.rescaleNTTTower(sc, dst, a, i)
		}
	} else {
		ring.ParallelChunks(towers, workers, func(start, end int) {
			for i := start; i < end; i++ {
				r.rescaleNTTTower(sc, dst, a, i)
			}
		})
	}
	r.scratch.Put(sc)
	return nil
}

// rescaleNTTTower finishes one prefix tower of a resident rescale: build
// the correction w_i = (h_i - u) mod q_i from the shared remainder in
// sc.gamma, forward-transform it, and fuse the add-and-scale pass.
func (r *Rescaler) rescaleNTTTower(sc *convScratch, dst, a Poly, i int) {
	u := sc.gamma
	mod := r.to.Mods[i]
	q := mod.Q
	w := sc.rows[i]
	h := r.halfRes[i]
	for j := range w {
		t := u[j] // < q_k < 2q, one subtract reduces
		if t >= q {
			t -= q
		}
		w[j] = mod.Sub(h, t)
	}
	plan := r.to.Plans[i].Generic()
	plan.NegacyclicForwardInto(w, w)
	ar, dr := a.Res[i], dst.Res[i]
	inv, pre := r.qkInv[i], r.qkInvPre[i]
	for j := range dr {
		v := ar[j]
		if v >= q {
			v -= q
		}
		dr[j] = mod.MulShoup(mod.Add(v, w[j]), inv, pre)
	}
}
