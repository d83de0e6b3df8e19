package rns

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"mqxgo/internal/modmath"
)

// Test and fuzz coverage for the BEHZ base-management trio. Every check
// is differential against a math/big reference reconstruction: the
// approximate FastBConv must match its integer specification exactly
// (including the overshoot alpha), the Shenoy-Kumaresan conversion must
// be exact for every |y| < P/2, and the rescaler must equal
// round(x / q_{k-1}). Inputs cover boundary residues {0, q_i-1} and the
// lazy [0, 2q) domain the PR 3 kernels introduced.

// bcFix is the shared conversion fixture: a 3-tower base Q and a 5-tower
// extension base (4 towers of P plus m_sk), built once because fuzz
// bodies run millions of times.
type bcFix struct {
	q, e  *Context
	conv  *BaseConverter
	mconv *MontBaseConverter
	sk    *SKConverter
	p     *big.Int // product of the extension base minus m_sk
	sub   *Context // q with its last tower dropped
	rs    *Rescaler
}

var (
	fixOnce sync.Once
	fix     bcFix
)

func convFix(t testing.TB) *bcFix {
	fixOnce.Do(func() {
		const n = 32
		primes, err := modmath.FindNTTPrimes64(59, 2*n, 8)
		if err != nil {
			panic(err)
		}
		q, err := NewContextForPrimes(primes[:3], n)
		if err != nil {
			panic(err)
		}
		e, err := NewContextForPrimes(primes[3:], n)
		if err != nil {
			panic(err)
		}
		conv, err := NewBaseConverter(q, e)
		if err != nil {
			panic(err)
		}
		mconv, err := NewMontBaseConverter(q, e, 1<<16)
		if err != nil {
			panic(err)
		}
		sk, err := NewSKConverter(e, q)
		if err != nil {
			panic(err)
		}
		p := new(big.Int).Div(e.Q, new(big.Int).SetUint64(e.Mods[4].Q))
		sub, err := NewContextForPrimes(primes[:2], n)
		if err != nil {
			panic(err)
		}
		rs, err := NewRescaler(q, sub)
		if err != nil {
			panic(err)
		}
		fix = bcFix{q: q, e: e, conv: conv, mconv: mconv, sk: sk, p: p, sub: sub, rs: rs}
	})
	return &fix
}

// fillResidues derives one residue matrix from a seeded generator,
// steering toward the corners the pattern byte selects: zero rows,
// q_i - 1 rows, small values, and lazy [0, 2q) representations.
func fillResidues(p Poly, mods []*modmath.Modulus64, seed int64, pattern byte) {
	rng := rand.New(rand.NewSource(seed))
	lazy := pattern&4 != 0
	for i, mod := range mods {
		row := p.Res[i]
		for j := range row {
			var v uint64
			switch {
			case pattern&1 != 0 && j%3 == 0:
				v = 0
			case pattern&2 != 0 && j%3 == 1:
				v = mod.Q - 1
			case pattern&8 != 0:
				v = rng.Uint64() % 16
			default:
				v = rng.Uint64() % mod.Q
			}
			if lazy {
				v += mod.Q // lazy [0, 2q) representation, still < 2^63
			}
			row[j] = v
		}
	}
}

// refConvert is the integer specification of FastBConv: for each
// coefficient, sum_i z_i*(Q/q_i) with z_i = [x_i * (Q/q_i)^-1]_{q_i},
// reduced mod the target prime. The overshoot alpha*Q is part of the
// spec, so this matches ConvertInto bit for bit.
func refConvert(from *Context, src Poly, j int, target uint64) uint64 {
	sum := new(big.Int)
	term := new(big.Int)
	for i, mod := range from.Mods {
		x := src.Res[i][j] % mod.Q // tolerate lazy inputs like the kernels do
		z := mod.Mul(x, from.qiInv[i])
		term.SetUint64(z)
		term.Mul(term, from.qi[i])
		sum.Add(sum, term)
	}
	return sum.Mod(sum, term.SetUint64(target)).Uint64()
}

func checkBaseConvert(t *testing.T, seed int64, pattern byte) {
	t.Helper()
	f := convFix(t)
	src := f.q.NewPoly()
	fillResidues(src, f.q.Mods, seed, pattern)
	dst := f.e.NewPoly()
	if err := f.conv.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < f.q.N; j++ {
		for jj, mod := range f.e.Mods {
			if want := refConvert(f.q, src, j, mod.Q); dst.Res[jj][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d ext tower %d: got %d, want %d",
					seed, pattern, j, jj, dst.Res[jj][j], want)
			}
		}
	}
}

// checkMontConvert verifies the m-tilde-corrected conversion on the
// shared fixture (see checkMontExact).
func checkMontConvert(t *testing.T, seed int64, pattern byte) {
	t.Helper()
	f := convFix(t)
	src := f.q.NewPoly()
	fillResidues(src, f.q.Mods, seed, pattern)
	checkMontExact(t, f.mconv, src, nil, fmt.Sprintf("seed %d pattern %x", seed, pattern))
}

// checkMontExact converts src with conv and checks every output residue
// against the big-integer specification refMontConvert, and the
// converted value's defining property: y = x + gamma*Q with gamma in
// {-1, 0}, so the k*Q overshoot of the plain FastBConv is gone. When hit
// is non-nil it records every correction class r that occurred.
func checkMontExact(t *testing.T, conv *MontBaseConverter, src Poly, hit []bool, label string) {
	t.Helper()
	q, e := conv.from, conv.to
	canon := q.NewPoly()
	for i, mod := range q.Mods {
		for j, v := range src.Res[i] {
			canon.Res[i][j] = v % mod.Q
		}
	}
	xs, err := q.Reconstruct(canon)
	if err != nil {
		t.Fatal(err)
	}
	dst := e.NewPoly()
	if err := conv.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	tmp := new(big.Int)
	for j, x := range xs {
		y, r := refMontConvert(t, q, conv.mt, src, j)
		if hit != nil {
			hit[r] = true
		}
		if d := tmp.Sub(x, y); d.Sign() != 0 && d.Cmp(q.Q) != 0 {
			t.Fatalf("%s: coeff %d: y = x - %v, want 0 or Q", label, j, d)
		}
		for jj, mod := range e.Mods {
			if want := tmp.Mod(y, tmp.SetUint64(mod.Q)).Uint64(); dst.Res[jj][j] != want {
				t.Fatalf("%s: coeff %d tower %d (r=%d): got %d, want %d", label, j, jj, r, dst.Res[jj][j], want)
			}
		}
	}
}

func checkSKConvert(t *testing.T, seed int64, pattern byte) {
	t.Helper()
	f := convFix(t)
	// Draw a centered y with |y| < P/2 per coefficient and lay down its
	// exact residues across the extension base (P towers and m_sk).
	rng := rand.New(rand.NewSource(seed))
	halfP := new(big.Int).Rsh(f.p, 1)
	span := new(big.Int).Sub(f.p, big.NewInt(1)) // y in (-P/2, P/2)
	ys := make([]*big.Int, f.e.N)
	for j := range ys {
		y := new(big.Int).Rand(rng, span)
		switch {
		case pattern&1 != 0 && j%4 == 0:
			y.SetInt64(0)
		case pattern&2 != 0 && j%4 == 1:
			y.Sub(f.p, big.NewInt(1)) // maximal positive after centering offset
		case pattern&8 != 0:
			y.SetInt64(int64(rng.Uint64() % 64))
		}
		y.Sub(y, halfP)
		ys[j] = y
	}
	src := f.e.NewPoly()
	tmp := new(big.Int)
	for i, mod := range f.e.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		for j, y := range ys {
			v := tmp.Mod(y, qb).Uint64() // Euclidean: signed residues wrap
			if pattern&4 != 0 {          // lazy representation
				v += mod.Q
			}
			src.Res[i][j] = v
		}
	}
	dst := f.q.NewPoly()
	if err := f.sk.ConvertInto(dst, src); err != nil {
		t.Fatal(err)
	}
	for i, mod := range f.q.Mods {
		qb := new(big.Int).SetUint64(mod.Q)
		for j, y := range ys {
			if want := tmp.Mod(y, qb).Uint64(); dst.Res[i][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d tower %d: got %d, want %d (y=%v)",
					seed, pattern, j, i, dst.Res[i][j], want, y)
			}
		}
	}
}

func checkRescale(t *testing.T, seed int64, pattern byte) {
	t.Helper()
	f := convFix(t)
	full, sub := f.q, f.sub
	src := full.NewPoly()
	fillResidues(src, full.Mods, seed, pattern)
	dst := sub.NewPoly()
	if err := f.rs.RescaleInto(dst, src); err != nil {
		t.Fatal(err)
	}
	// Reference: reconstruct x in [0, Q), divide-and-round by the last
	// prime, reduce into each remaining tower.
	canon := full.NewPoly()
	for i, mod := range full.Mods {
		for j, v := range src.Res[i] {
			canon.Res[i][j] = v % mod.Q
		}
	}
	coeffs, err := full.Reconstruct(canon)
	if err != nil {
		t.Fatal(err)
	}
	qk := new(big.Int).SetUint64(full.Mods[2].Q)
	half := new(big.Int).Rsh(qk, 1)
	tmp := new(big.Int)
	for j, x := range coeffs {
		y := tmp.Add(x, half)
		y.Div(y, qk)
		for i, mod := range sub.Mods {
			want := new(big.Int).Mod(y, new(big.Int).SetUint64(mod.Q)).Uint64()
			if dst.Res[i][j] != want {
				t.Fatalf("seed %d pattern %x: coeff %d tower %d: got %d, want %d",
					seed, pattern, j, i, dst.Res[i][j], want)
			}
		}
	}
}

func TestBaseConverterMatchesBigInt(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 4, 7, 8, 15} {
			checkBaseConvert(t, seed, pattern)
		}
	}
}

func TestMontBaseConverterOvershootFree(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 4, 7, 8, 15} {
			checkMontConvert(t, seed, pattern)
		}
	}
}

func TestMontBaseConverterValidation(t *testing.T) {
	f := convFix(t)
	if _, err := NewMontBaseConverter(f.q, f.e, 12345); err == nil {
		t.Error("expected error for non-power-of-two m~")
	}
	if _, err := NewMontBaseConverter(f.q, f.e, 4); err == nil {
		t.Error("expected error for m~ <= 2k")
	}
	if _, err := NewMontBaseConverter(f.q, f.e, 1<<32); err == nil {
		t.Error("expected error for m~ above 2^31")
	}
	src := f.q.NewPoly()
	if err := f.mconv.ConvertInto(f.q.NewPoly(), src); err == nil {
		t.Error("expected shape error for destination in the wrong base")
	}
}

func TestSKConverterExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 4, 7, 8, 15} {
			checkSKConvert(t, seed, pattern)
		}
	}
}

func TestRescalerMatchesBigInt(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 4, 7, 8, 15} {
			checkRescale(t, seed, pattern)
		}
	}
}

// TestRescaleNTTMatchesCoefficientPath: the resident rescale on an
// NTT-domain polynomial must be BIT-IDENTICAL to transform -> RescaleInto
// -> transform, for both the sequential and the tower-parallel dispatch —
// the linearity argument (NTT(x + w) = NTT(x) + NTT(w), scalars commute)
// checked in code rather than trusted.
func TestRescaleNTTMatchesCoefficientPath(t *testing.T) {
	f := convFix(t)
	full, sub := f.q, f.sub
	for seed := int64(0); seed < 4; seed++ {
		for _, pattern := range []byte{0, 1, 2, 3, 4, 7} {
			src := full.NewPoly()
			fillResidues(src, full.Mods, seed, pattern)
			for i, mod := range full.Mods {
				for j := range src.Res[i] {
					src.Res[i][j] %= mod.Q
				}
			}
			want := sub.NewPoly()
			if err := f.rs.RescaleInto(want, src); err != nil {
				t.Fatal(err)
			}
			srcHat := full.NewPoly()
			if err := full.NegacyclicNTTAll(srcHat, src, 1); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				gotHat := sub.NewPoly()
				if err := f.rs.RescaleNTTInto(gotHat, srcHat, workers); err != nil {
					t.Fatal(err)
				}
				got := sub.NewPoly()
				if err := sub.NegacyclicINTTAll(got, gotHat, 1); err != nil {
					t.Fatal(err)
				}
				for i := range got.Res {
					for j := range got.Res[i] {
						if got.Res[i][j] != want.Res[i][j] {
							t.Fatalf("seed %d pattern %x workers %d: tower %d coeff %d: resident %d, coefficient path %d",
								seed, pattern, workers, i, j, got.Res[i][j], want.Res[i][j])
						}
					}
				}
			}
		}
	}
}

func TestRescalerValidation(t *testing.T) {
	f := convFix(t)
	if _, err := NewRescaler(f.q, f.q); err == nil {
		t.Error("expected error for non-prefix target with equal tower count")
	}
	wrong, err := NewContextForPrimes([]uint64{f.q.Mods[0].Q, f.q.Mods[2].Q}, f.q.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRescaler(f.q, wrong); err == nil {
		t.Error("expected error for mismatched prefix primes")
	}
	if _, err := NewSKConverter(wrong, f.q); err == nil {
		// wrong has two towers, so this actually succeeds shape-wise;
		// the real invalid case is a single-tower source.
		t.Log("two-tower SK base accepted (valid)")
	}
	single, err := NewContextForPrimes([]uint64{f.q.Mods[0].Q}, f.q.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSKConverter(single, f.q); err == nil {
		t.Error("expected error for single-tower Shenoy-Kumaresan base")
	}
}

// FuzzBaseConvert cross-checks both conversion directions against the
// math/big reference: the approximate FastBConv out of base Q and the
// exact Shenoy-Kumaresan conversion back. The pattern byte steers
// residues into boundary values {0, q_i-1}, small values, and the lazy
// [0, 2q) domain.
func FuzzBaseConvert(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(2), byte(1))
	f.Add(int64(3), byte(2))
	f.Add(int64(4), byte(4))
	f.Add(int64(5), byte(7))
	f.Add(int64(6), byte(15))
	f.Fuzz(func(t *testing.T, seed int64, pattern byte) {
		checkBaseConvert(t, seed, pattern)
		checkMontConvert(t, seed, pattern)
		checkSKConvert(t, seed, pattern)
	})
}

// FuzzRescale cross-checks divide-and-round by the last tower against
// big-integer reconstruction, same input steering as FuzzBaseConvert.
func FuzzRescale(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(2), byte(1))
	f.Add(int64(3), byte(2))
	f.Add(int64(4), byte(4))
	f.Add(int64(5), byte(7))
	f.Add(int64(6), byte(15))
	f.Fuzz(func(t *testing.T, seed int64, pattern byte) {
		checkRescale(t, seed, pattern)
	})
}

// refMontConvert is the integer specification of the m-tilde-corrected
// conversion for coefficient j: the digits of X = [m~ x]_Q, their weighted
// sum V = sum_i z_i*(Q/q_i), the correction class r = [-V * Q^-1]_m~ and
// y = (V + r'*Q) / m~ for the centered r' in (-m~/2, m~/2]. It returns y
// and r.
func refMontConvert(t *testing.T, from *Context, mt uint64, src Poly, j int) (*big.Int, uint64) {
	t.Helper()
	v := new(big.Int)
	term := new(big.Int)
	for i, mod := range from.Mods {
		x := src.Res[i][j] % mod.Q
		z := mod.Mul(mod.Mul(x, mt%mod.Q), from.qiInv[i])
		term.SetUint64(z)
		v.Add(v, term.Mul(term, from.qi[i]))
	}
	mtBig := new(big.Int).SetUint64(mt)
	qInv := new(big.Int).ModInverse(from.Q, mtBig)
	rBig := new(big.Int).Neg(v)
	rBig.Mul(rBig, qInv)
	r := rBig.Mod(rBig, mtBig).Uint64()
	rc := new(big.Int).SetUint64(r)
	if r > mt/2 {
		rc.Sub(rc, mtBig)
	}
	y := rc.Mul(rc, from.Q)
	y.Add(y, v)
	if new(big.Int).Mod(y, mtBig).Sign() != 0 {
		t.Fatalf("coeff %d: V + r'Q = %v not divisible by m~ %d", j, y, mt)
	}
	return y.Div(y, mtBig), r
}

// TestMontBaseConverterMtildeEdges drives the folded rho-digit correction
// at both ends of its range: m~ in {16, 32} is legal for k = 4 (m~ > 2k is
// the only requirement) and small enough that every correction class r in
// [0, m~) occurs, so rho = ((r + m~/2 - 1) & (m~-1)) + 1 is exercised at
// r = 0, m~/2, m~/2+1 and m~-1 rather than assumed. Every output residue
// must equal the big-integer specification on canonical and lazy [q, 2q)
// inputs, and the converted value must stay within {x - Q, x}.
func TestMontBaseConverterMtildeEdges(t *testing.T) {
	const n = 256
	primes, err := modmath.FindNTTPrimes64(59, 2*n, 9)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewContextForPrimes(primes[:4], n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewContextForPrimes(primes[4:], n)
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range []uint64{16, 32, 1 << 16} {
		conv, err := NewMontBaseConverter(q, e, mt)
		if err != nil {
			t.Fatal(err)
		}
		hit := make([]bool, mt)
		for seed := int64(0); seed < 3; seed++ {
			for _, pattern := range []byte{0, 3, 4, 7} { // 4: lazy [q, 2q)
				src := q.NewPoly()
				fillResidues(src, q.Mods, seed, pattern)
				checkMontExact(t, conv, src, hit, fmt.Sprintf("m~ %d seed %d pattern %x", mt, seed, pattern))
			}
		}
		if mt > 32 {
			continue
		}
		for r, ok := range hit {
			if !ok {
				t.Errorf("m~ %d: correction class r = %d never occurred", mt, r)
			}
		}
	}
}

// spanChainDot is the digit-by-digit reference for one output tower: a
// ScalarMulInto of the first row, then a ScaleAddInto per further row,
// each weight the big-integer c_t reduced mod the tower prime.
func spanChainDot(to *Context, j int, dst []uint64, rows [][]uint64, c []*big.Int) {
	plan := to.Plans[j].Generic()
	qb := new(big.Int).SetUint64(to.Mods[j].Q)
	w := func(t int) uint64 { return new(big.Int).Mod(c[t], qb).Uint64() }
	plan.ScalarMulInto(dst, rows[0], w(0))
	for t := 1; t < len(rows); t++ {
		plan.ScaleAddInto(dst, dst, rows[t], w(t))
	}
}

// TestConvertersMatchSpanChain guards the single conversion path: all
// three converters must reproduce, bit for bit, a reference assembled
// from the exported plan API with one ScalarMulInto/ScaleAddInto pass per
// digit and the corrections applied per element. The shape (k = 2 into 3
// towers, n = 1024, 61-bit primes) is the basis with the least headroom
// for a deferred 128-bit digit sum, the path these converters replaced.
func TestConvertersMatchSpanChain(t *testing.T) {
	const n = 1024
	const mt = 1 << 16
	primes, err := modmath.FindNTTPrimes64(61, 2*n, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewContextForPrimes(primes[:2], n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewContextForPrimes(primes[2:], n)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewBaseConverter(q, e)
	if err != nil {
		t.Fatal(err)
	}
	mconv, err := NewMontBaseConverter(q, e, mt)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSKConverter(e, q)
	if err != nil {
		t.Fatal(err)
	}
	qis := []*big.Int{q.QiBig(0), q.QiBig(1)}
	eq := func(what string, got, want Poly) {
		t.Helper()
		for i := range want.Res {
			for j := range want.Res[i] {
				if got.Res[i][j] != want.Res[i][j] {
					t.Fatalf("%s: tower %d coeff %d: got %d, span chain %d", what, i, j, got.Res[i][j], want.Res[i][j])
				}
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, pattern := range []byte{0, 3, 4, 7, 15} {
			src := q.NewPoly()
			fillResidues(src, q.Mods, seed, pattern)

			// FastBConv: z_i = x_i * (Q/q_i)^-1, then sum_i z_i*(Q/q_i).
			z := q.NewPoly()
			for i := range q.Mods {
				q.Plans[i].Generic().ScalarMulInto(z.Res[i], src.Res[i], q.QiInv(i))
			}
			want := e.NewPoly()
			for j := range e.Mods {
				spanChainDot(e, j, want.Res[j], z.Res, qis)
			}
			got := e.NewPoly()
			if err := conv.ConvertInto(got, src); err != nil {
				t.Fatal(err)
			}
			eq("BaseConverter", got, want)

			// Mont: digits of [m~ x]_Q, V by the chain, then
			// (V + r'*Q) * m~^-1 per element.
			for i, mod := range q.Mods {
				q.Plans[i].Generic().ScalarMulInto(z.Res[i], src.Res[i], mod.Mul(mt%mod.Q, q.QiInv(i)))
			}
			qInvMt := new(big.Int).ModInverse(q.Q, big.NewInt(mt)).Uint64()
			for j, mod := range e.Mods {
				spanChainDot(e, j, want.Res[j], z.Res, qis)
				qp := new(big.Int).Mod(q.Q, new(big.Int).SetUint64(mod.Q)).Uint64()
				mtInv := mod.Inv(mt % mod.Q)
				for c := range want.Res[j] {
					var vmt uint64
					for i := range q.Mods {
						vmt += z.Res[i][c] * new(big.Int).Mod(qis[i], big.NewInt(mt)).Uint64()
					}
					r := (-vmt * qInvMt) % mt
					corr := mod.Mul(r, qp)
					if r > mt/2 {
						corr = mod.Sub(corr, mod.Mul(mt%mod.Q, qp))
					}
					want.Res[j][c] = mod.Mul(mod.Add(want.Res[j][c], corr), mtInv)
				}
			}
			if err := mconv.ConvertInto(got, src); err != nil {
				t.Fatal(err)
			}
			eq("MontBaseConverter", got, want)

			// SK: digits over P, gamma on m_sk, then
			// sum_i z_i*(P/p_i) - gamma*P.
			srcE := e.NewPoly()
			fillResidues(srcE, e.Mods, seed+100, pattern)
			p := new(big.Int).Mul(new(big.Int).SetUint64(e.Mods[0].Q), new(big.Int).SetUint64(e.Mods[1].Q))
			pis := []*big.Int{new(big.Int).SetUint64(e.Mods[1].Q), new(big.Int).SetUint64(e.Mods[0].Q)}
			ze := e.NewPoly()
			for i := 0; i < 2; i++ {
				mod := e.Mods[i]
				e.Plans[i].Generic().ScalarMulInto(ze.Res[i], srcE.Res[i], mod.Inv(pis[i].Uint64()%mod.Q))
			}
			skMod := e.Mods[2]
			g := ze.Res[2]
			spanChainDot(e, 2, g, ze.Res[:2], pis)
			for c := range g {
				g[c] = skMod.Sub(g[c], srcE.Res[2][c]%skMod.Q)
			}
			e.Plans[2].Generic().ScalarMulInto(g, g, skMod.Inv(new(big.Int).Mod(p, new(big.Int).SetUint64(skMod.Q)).Uint64()))
			wantQ := q.NewPoly()
			for j := range q.Mods {
				spanChainDot(q, j, wantQ.Res[j], ze.Res, append(pis, new(big.Int).Neg(p)))
			}
			gotQ := q.NewPoly()
			if err := sk.ConvertInto(gotQ, srcE); err != nil {
				t.Fatal(err)
			}
			eq("SKConverter", gotQ, wantQ)
		}
	}
}
