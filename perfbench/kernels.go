package main

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"mqxgo/internal/blas"
	"mqxgo/internal/core"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// The kernels workload is the paper's comparison on one goroutine at a
// cache-resident size: the 124-bit double-word transform and BLAS against
// the payload-matched pair of ~60-bit RNS towers, plus the BEHZ
// conversions only the RNS side pays, at the k=4 shapes
// fhe.NewRNSBackend builds.
const (
	kernelN         = 4096
	kernelRNSBits   = 60 // the payload-matched tower width core.CompareRNS models
	kernelBEHZBits  = 59 // the tower width fhe-circuit and fheserver use
	kernelBEHZK     = 4
	kernelMTilde    = 1 << 16 // fhe.NewRNSBackend's m~
	kernelPool      = 4       // distinct inputs cycled through, all cache-resident
	kernelSampled   = 8       // BLAS positions checked per call
	kernelWarmup    = 20      // rounds before timing starts
	kernelAllocRuns = 16
)

func kernelParams() map[string]any {
	return map[string]any{
		"n": kernelN, "u128_modulus_bits": modmath.DefaultModulus128().Q.BitLen(),
		"rns_towers": core.RNSChannels, "rns_prime_bits": kernelRNSBits,
		"behz_k": kernelBEHZK, "behz_prime_bits": kernelBEHZBits, "behz_ext_towers": kernelBEHZK + 2,
		"workers": 1, "input_pool": kernelPool,
	}
}

// resetPlanCaches drops the process-wide plan caches so a timed set-up
// pays the cold cost.
func resetPlanCaches() {
	ntt.ResetPlanCaches()
	ring.ResetPlanCache()
}

// kernelState is the kernels workload's plans, converters and buffers.
type kernelState struct {
	mod  *modmath.Modulus128
	plan *ntt.Plan
	nat  blas.Native

	c2           *rns.Context // core.RNSChannels towers of ~60 bits
	c4, c3, ext  *rns.Context // BEHZ base Q (k=4), its prefix, and extension base P
	mont         *rns.MontBaseConverter
	sk           *rns.SKConverter
	fastb        *rns.BaseConverter
	rescale      *rns.Rescaler
	qModExt      []uint64 // Q mod p_j, for the FastBConv check
	alpha        u128.U128
	alpha2       rns.Poly // alpha's residues broadcast over every coefficient
	x128         [kernelPool][]u128.U128
	b128, y128   []u128.U128
	x2           [kernelPool]rns.Poly
	b2, y2       rns.Poly
	x4, xNTT     [kernelPool]rns.Poly
	rescaleWant  [kernelPool]rns.Poly
	f128, z128   []u128.U128
	d128         []u128.U128
	f2, z2, d2   rns.Poly
	t2           rns.Poly
	ext4, back4  rns.Poly
	fast4, resc3 rns.Poly
}

// buildKernels builds the plans and converters: the set-up a user of
// these kernels pays.
func buildKernels() (*kernelState, error) {
	s := &kernelState{mod: modmath.DefaultModulus128()}
	s.nat = blas.Native{Mod: s.mod}
	var err error
	if s.plan, err = ntt.NewPlan(s.mod, kernelN); err != nil {
		return nil, fmt.Errorf("u128 plan: %w", err)
	}
	if s.c2, err = rns.NewContext(kernelRNSBits, core.RNSChannels, kernelN); err != nil {
		return nil, fmt.Errorf("rns2 context: %w", err)
	}
	if s.c4, err = rns.NewContext(kernelBEHZBits, kernelBEHZK, kernelN); err != nil {
		return nil, fmt.Errorf("behz base: %w", err)
	}
	// The extension base as fhe.NewRNSBackend picks it: the next k+2 NTT
	// primes of the same width that are not in Q.
	found, err := modmath.FindNTTPrimes64(kernelBEHZBits, 2*kernelN, 2*kernelBEHZK+2)
	if err != nil {
		return nil, fmt.Errorf("extension primes: %w", err)
	}
	var qPrimes, extPrimes []uint64
	for _, m := range s.c4.Mods {
		qPrimes = append(qPrimes, m.Q)
	}
	for _, p := range found {
		if !slices.Contains(qPrimes, p) && len(extPrimes) < kernelBEHZK+2 {
			extPrimes = append(extPrimes, p)
		}
	}
	if s.ext, err = rns.NewContextForPrimes(extPrimes, kernelN); err != nil {
		return nil, fmt.Errorf("extension base: %w", err)
	}
	if s.c3, err = rns.NewContextForPrimes(qPrimes[:kernelBEHZK-1], kernelN); err != nil {
		return nil, fmt.Errorf("rescale target: %w", err)
	}
	if s.mont, err = rns.NewMontBaseConverter(s.c4, s.ext, kernelMTilde); err != nil {
		return nil, err
	}
	if s.sk, err = rns.NewSKConverter(s.ext, s.c4); err != nil {
		return nil, err
	}
	if s.fastb, err = rns.NewBaseConverter(s.c4, s.ext); err != nil {
		return nil, err
	}
	if s.rescale, err = rns.NewRescaler(s.c4, s.c3); err != nil {
		return nil, err
	}
	return s, nil
}

// fillInputs makes the seeded inputs and the output buffers. It is the
// benchmark's own work, so it runs after set-up is timed.
func (s *kernelState) fillInputs(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, m := range s.ext.Mods {
		s.qModExt = append(s.qModExt, new(big.Int).Mod(s.c4.Q, new(big.Int).SetUint64(m.Q)).Uint64())
	}
	q := s.mod.Q.ToBig()
	rand128 := func() u128.U128 {
		v, _ := u128.FromBig(new(big.Int).Rand(rng, q)) // below q < 2^124, always fits
		return v
	}
	vec128 := func() []u128.U128 {
		v := make([]u128.U128, kernelN)
		for i := range v {
			v[i] = rand128()
		}
		return v
	}
	poly := func(c *rns.Context) rns.Poly {
		p := c.NewPoly()
		for i, m := range c.Mods {
			for j := range p.Res[i] {
				p.Res[i][j] = rng.Uint64() % m.Q
			}
		}
		return p
	}
	for p := range kernelPool {
		s.x128[p] = vec128()
		s.x2[p] = poly(s.c2)
		s.x4[p] = poly(s.c4)
		s.xNTT[p] = poly(s.c4) // any residues are a valid evaluation-domain polynomial
	}
	s.b128, s.y128 = vec128(), vec128()
	s.b2, s.y2 = poly(s.c2), poly(s.c2)
	s.alpha = rand128()
	s.alpha2 = s.c2.NewPoly()
	for i, m := range s.c2.Mods {
		a := new(big.Int).Mod(s.alpha.ToBig(), new(big.Int).SetUint64(m.Q)).Uint64()
		for j := range s.alpha2.Res[i] {
			s.alpha2.Res[i][j] = a
		}
	}
	s.f128, s.z128, s.d128 = make([]u128.U128, kernelN), make([]u128.U128, kernelN), make([]u128.U128, kernelN)
	s.f2, s.z2, s.d2, s.t2 = s.c2.NewPoly(), s.c2.NewPoly(), s.c2.NewPoly(), s.c2.NewPoly()
	s.ext4, s.back4, s.fast4 = s.ext.NewPoly(), s.c4.NewPoly(), s.ext.NewPoly()
	s.resc3 = s.c3.NewPoly()
}

// prepareChecks computes the reference outputs the rescale check compares
// against, through the coefficient-domain Rescaler and the transforms —
// a different path from the resident RescaleNTTInto being timed.
func (s *kernelState) prepareChecks() error {
	for p := range kernelPool {
		coeff := s.c4.NewPoly()
		if err := s.c4.NegacyclicINTTAll(coeff, s.xNTT[p], 1); err != nil {
			return err
		}
		want := s.c3.NewPoly()
		if err := s.rescale.RescaleInto(want, coeff); err != nil {
			return err
		}
		if err := s.c3.NegacyclicNTTAll(want, want, 1); err != nil {
			return err
		}
		s.rescaleWant[p] = want
	}
	return nil
}

// kernelRun accumulates one run's timings. Calls are timed in CPU time
// of the benchmark's (locked) thread, so time the host steals from the
// virtual CPU does not count; spans keep the wall-clock interval.
type kernelRun struct {
	opTimes                  map[string][]float64 // CPU microseconds per call, error-free calls only
	rounds                   []float64            // CPU milliseconds per fully timed round
	wall                     []float64            // wall milliseconds of the same rounds
	costs                    []float64            // the rounds' CPU milliseconds plus their tracing work
	attempted, failed, wrong int64
}

// timed runs f between two clock reads, records the span, and returns the
// call's CPU and wall time, and the CPU time the span's recording took;
// ok is false when f failed (the time is then discarded).
func (r *kernelRun) timed(tr *tracer, name string, parent, trace uint64, f func() error) (cpu, wall, tracing time.Duration, ok bool) {
	r.attempted++
	start := time.Now()
	c0 := threadCPU()
	err := f()
	c1 := threadCPU()
	end := time.Now()
	if err != nil {
		r.failed++
		return 0, 0, 0, false
	}
	tr.record(name, parent, trace, start, end)
	c2 := threadCPU()
	r.opTimes[name] = append(r.opTimes[name], us(c1-c0))
	return c1 - c0, end.Sub(start), c2 - c1, true
}

// check counts a wrong output.
func (r *kernelRun) check(ok bool) {
	if !ok {
		r.wrong++
		r.failed++
	}
}

// round runs every kernel once on pool entry p, then checks every output
// outside the timed intervals. corrupt flips one output bit first.
func (s *kernelState) round(r *kernelRun, tr *tracer, id uint64, p int, corrupt bool) {
	// tracing is the CPU time the tracer's own work takes, counted so that
	// trace.overhead.kernels can show it.
	t0 := threadCPU()
	root := tr.begin("kernels.round", 0, id)
	tracing := threadCPU() - t0
	var cpu, wall time.Duration
	allOK := true
	step := func(name string, f func() error) bool {
		c, w, t, ok := r.timed(tr, name, root, id, f)
		cpu += c
		wall += w
		tracing += t
		allOK = allOK && ok
		return ok
	}
	x, n := s.x128[p], kernelN

	step("ntt.u128.fwd", func() error { s.plan.ForwardInto(s.f128, x); return nil })
	step("ntt.u128.inv", func() error { s.plan.InverseInto(s.z128, s.f128); return nil })
	if corrupt {
		s.z128[n/2].Lo ^= 1
	}
	r.check(slices.Equal(s.z128, x))

	fwd := step("ntt.rns2.fwd", func() error { return s.c2.NTTAll(s.f2, s.x2[p], 1) })
	inv := fwd && step("ntt.rns2.inv", func() error { return s.c2.INTTAll(s.z2, s.f2, 1) })
	if inv {
		r.check(polyEqual(s.z2, s.x2[p]))
	}

	step("blas.u128.add", func() error { s.nat.VecAddMod(s.d128, x, s.b128); return nil })
	r.check(s.checkBLAS128(s.d128, x, s.b128, nil, p, func(a, b *big.Int) *big.Int { return a.Add(a, b) }))
	step("blas.u128.pmul", func() error { s.nat.VecPMulMod(s.d128, x, s.b128); return nil })
	r.check(s.checkBLAS128(s.d128, x, s.b128, nil, p, func(a, b *big.Int) *big.Int { return a.Mul(a, b) }))
	copy(s.d128, s.y128)
	step("blas.u128.axpy", func() error { s.nat.Axpy(s.alpha, x, s.d128); return nil })
	r.check(s.checkBLAS128(s.d128, x, s.y128, &s.alpha, p, nil))

	if step("blas.rns2.add", func() error { return s.c2.AddInto(s.d2, s.x2[p], s.b2) }) {
		r.check(checkBLAS2(s.c2, s.d2, s.x2[p], s.b2, nil, p, false))
	}
	if step("blas.rns2.pmul", func() error { return s.c2.PMulInto(s.d2, s.x2[p], s.b2) }) {
		r.check(checkBLAS2(s.c2, s.d2, s.x2[p], s.b2, nil, p, true))
	}
	copyPoly(s.d2, s.y2)
	// The RNS side has no fused axpy: a broadcast pointwise multiply and an
	// add, both timed.
	if step("blas.rns2.axpy", func() error {
		if err := s.c2.PMulInto(s.t2, s.alpha2, s.x2[p]); err != nil {
			return err
		}
		return s.c2.AddInto(s.d2, s.t2, s.d2)
	}) {
		r.check(checkBLAS2(s.c2, s.d2, s.x2[p], s.y2, s.alpha2.Res, p, true))
	}

	ext := step("rns.extend", func() error { return s.mont.ConvertInto(s.ext4, s.x4[p]) })
	if ext && step("rns.sk", func() error { return s.sk.ConvertInto(s.back4, s.ext4) }) {
		r.check(polyEqual(s.back4, s.x4[p]))
	}
	if step("rns.fastbconv", func() error { return s.fastb.ConvertInto(s.fast4, s.x4[p]) }) && ext {
		r.check(s.checkFastBConv(p))
	}
	if step("rns.rescale_ntt", func() error { return s.rescale.RescaleNTTInto(s.resc3, s.xNTT[p], 1) }) {
		r.check(polyEqual(s.resc3, s.rescaleWant[p]))
	}

	t1 := threadCPU()
	tr.end(root)
	tracing += threadCPU() - t1
	if allOK {
		r.rounds = append(r.rounds, ms(cpu))
		r.wall = append(r.wall, ms(wall))
		r.costs = append(r.costs, ms(cpu+tracing))
	}
}

// checkBLAS128 verifies kernelSampled positions of dst against big.Int
// arithmetic: dst = op(a, b) mod q, or dst = alpha*a + b mod q when alpha
// is set.
func (s *kernelState) checkBLAS128(dst, a, b []u128.U128, alpha *u128.U128, salt int, op func(a, b *big.Int) *big.Int) bool {
	q := s.mod.Q.ToBig()
	for k := range kernelSampled {
		i := (k*577 + salt*131) % kernelN
		x, y := a[i].ToBig(), b[i].ToBig()
		var want *big.Int
		if alpha != nil {
			want = x.Mul(x, alpha.ToBig())
			want.Add(want, y)
		} else {
			want = op(x, y)
		}
		want.Mod(want, q)
		if dst[i].ToBig().Cmp(want) != 0 {
			return false
		}
	}
	return true
}

// checkBLAS2 verifies sampled positions of every tower of dst: dst = a+b,
// dst = a*b (mul), or dst = alpha*a + b when alpha is set.
func checkBLAS2(c *rns.Context, dst, a, b rns.Poly, alpha [][]uint64, salt int, mul bool) bool {
	for t, m := range c.Mods {
		for k := range kernelSampled {
			j := (k*577 + salt*131) % kernelN
			var want uint64
			switch {
			case alpha != nil:
				want = addMod(mulMod(alpha[t][j], a.Res[t][j], m.Q), b.Res[t][j], m.Q)
			case mul:
				want = mulMod(a.Res[t][j], b.Res[t][j], m.Q)
			default:
				want = addMod(a.Res[t][j], b.Res[t][j], m.Q)
			}
			if dst.Res[t][j] != want {
				return false
			}
		}
	}
	return true
}

// checkFastBConv verifies that the plain fast base conversion and the
// m~-corrected one differ by one multiple m*Q with 0 <= m <= k on every
// extension tower, as FastBConv's overshoot bound says.
func (s *kernelState) checkFastBConv(salt int) bool {
	for k := range kernelSampled {
		j := (k*577 + salt*131) % kernelN
		found := false
		for mult := uint64(0); mult <= kernelBEHZK && !found; mult++ {
			ok := true
			for t, m := range s.ext.Mods {
				diff := subMod(s.fast4.Res[t][j]%m.Q, s.ext4.Res[t][j]%m.Q, m.Q)
				if diff != mulMod(mult, s.qModExt[t], m.Q) {
					ok = false
					break
				}
			}
			found = ok
		}
		if !found {
			return false
		}
	}
	return true
}

func mulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi%q, lo, q)
	return r
}

func addMod(a, b, q uint64) uint64 { return (a%q + b%q) % q }

func subMod(a, b, q uint64) uint64 { return (a%q + q - b%q) % q }

func polyEqual(a, b rns.Poly) bool {
	if len(a.Res) != len(b.Res) {
		return false
	}
	for i := range a.Res {
		if !slices.Equal(a.Res[i], b.Res[i]) {
			return false
		}
	}
	return true
}

func copyPoly(dst, src rns.Poly) {
	for i := range dst.Res {
		copy(dst.Res[i], src.Res[i])
	}
}

// finalChecks compares one sampled product of each transform against the
// schoolbook negacyclic product, outside every timed region.
func (s *kernelState) finalChecks(rng *rand.Rand) bool {
	p := rng.Intn(kernelPool)
	a, b := s.x128[p], s.b128
	got := make([]u128.U128, kernelN)
	s.plan.PolyMulNegacyclicInto(got, a, b)
	if !slices.Equal(got, ntt.SchoolbookNegacyclic(s.mod, a, b)) {
		return false
	}
	prod := s.c2.NewPoly()
	if err := s.c2.MulAll(prod, s.x2[p], s.b2, 1); err != nil {
		return false
	}
	for t, m := range s.c2.Mods {
		mod := modmath.MustModulus128(u128.From64(m.Q))
		want := ntt.SchoolbookNegacyclic(mod, widen(s.x2[p].Res[t]), widen(s.b2.Res[t]))
		if !slices.Equal(widen(prod.Res[t]), want) {
			return false
		}
	}
	return true
}

func widen(xs []uint64) []u128.U128 {
	out := make([]u128.U128, len(xs))
	for i, x := range xs {
		out[i] = u128.From64(x)
	}
	return out
}

// runKernels is the kernels workload.
func runKernels(o options, traced bool) (outcome, []float64, float64, error) {
	s, setups, err := timeSetups(setupReps(o), buildKernels, nil)
	if err != nil {
		return outcome{}, nil, 0, err
	}
	s.fillInputs(o.seed)
	if err := s.prepareChecks(); err != nil {
		return outcome{}, nil, 0, fmt.Errorf("kernels reference: %w", err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	warm := &kernelRun{opTimes: map[string][]float64{}}
	for i := range kernelWarmup {
		s.round(warm, nil, 0, i%kernelPool, false)
	}
	r := &kernelRun{opTimes: map[string][]float64{}, attempted: warm.attempted, failed: warm.failed, wrong: warm.wrong}
	// One thread for the whole loop, so its CPU clock times every call.
	runtime.LockOSThread()
	before := readMem()
	deadline := time.Now().Add(o.measure)
	for i := 0; time.Now().Before(deadline) || len(r.rounds) < 10; i++ {
		s.round(r, tr, uint64(i+1), i%kernelPool, o.corrupt && i == 0)
	}
	after := readMem()
	runtime.UnlockOSThread()
	r.attempted++
	r.check(s.finalChecks(rand.New(rand.NewSource(o.seed + 1))))

	out := outcome{attempted: r.attempted, failed: r.failed, wrong: r.wrong}
	med := func(ops ...string) float64 {
		t := 0.0
		for _, op := range ops {
			t += median(r.opTimes[op])
		}
		return t
	}
	nr := len(r.rounds)
	// The gated figure is the sum over the round's kernels of each kernel's
	// fastest call. The kernels run in constant time and allocate nothing,
	// so any call slower than the fastest was slowed by something else: on
	// a shared host a neighbour's load slows the core by up to 1.8x for
	// seconds at a time, and covers anything from none to all of a run, so
	// the median round of a run partly measures the neighbours.
	fastest := 0.0
	for _, xs := range r.opTimes {
		fastest += slices.Min(xs) / 1e3
	}
	out.e2e = map[string]metric{"cpu_ms_per_op": {fastest, "ms"}}
	out.tracedCost = median(r.costs)
	// The paper's comparison, per CPU-second at the median call time.
	out.report = []named{
		{"kernel_round_cpu_fastest_calls_ms", fastest, "ms", nr},
		{"kernel_round_cpu_p50_ms", median(r.rounds), "ms", nr},
		{"kernel_round_cpu_p99_ms", percentile(r.rounds, 0.99), "ms", nr},
		{"kernel_round_wall_p50_ms", median(r.wall), "ms", nr},
		{"kernel_round_wall_p99_ms", percentile(r.wall, 0.99), "ms", nr},
		{"ntt_u128_per_s", 1e6 / med("ntt.u128.fwd", "ntt.u128.inv"), "1/s", nr},
		{"ntt_rns2_per_s", 1e6 / med("ntt.rns2.fwd", "ntt.rns2.inv"), "1/s", nr},
		{"blas_u128_melem_per_s", 3 * kernelN / med("blas.u128.add", "blas.u128.pmul", "blas.u128.axpy"), "Melem/s", nr},
		{"blas_rns2_melem_per_s", 3 * kernelN / med("blas.rns2.add", "blas.rns2.pmul", "blas.rns2.axpy"), "Melem/s", nr},
		{"baseconv_per_s", 1e6 / med("rns.extend", "rns.sk"), "1/s", nr},
		// The measured counterpart of the trade-off core.CompareRNS models:
		// time per butterfly of the double-word transform over the RNS pair.
		{"ntt_dw_over_rns", med("ntt.u128.fwd", "ntt.u128.inv") / med("ntt.rns2.fwd", "ntt.rns2.inv"), "ratio", nr},
		{"ntt_butterflies_per_pair_computed", bflyPerPair, "count", 1},
		{"ntt_u128_bytes_per_pair_computed", bytesU128, "B", 1},
		{"ntt_rns2_bytes_per_pair_computed", bytesRNS2, "B", 1},
		{"gc_pause_ms_per_round", float64(after.pauseNs-before.pauseNs) / 1e6 / float64(max(nr, 1)), "ms", nr},
	}
	if traced {
		layer, err := s.kernelLayers(tr, o, med)
		if err != nil {
			return outcome{}, nil, 0, err
		}
		out.layer = layer
	}
	mem := liveHeapMB()
	runtime.KeepAlive(s)
	return out, setups, mem, nil
}

// Computed (not measured) work of one forward+inverse NTT pair at n: the
// butterflies, and the bytes moved if every stage reads and writes all n
// coefficients and reads n/2 twiddles (128-bit Barrett twiddles on the
// double-word side, value+Shoup-quotient pairs per RNS tower). The RNS
// figure counts one logical butterfly per coefficient pair across its
// towers, the convention core.CompareRNS models.
var (
	nttStages   = float64(bits.Len(kernelN) - 1)
	bflyPerPair = 2 * float64(kernelN/2) * nttStages
	bytesU128   = 2 * nttStages * (2*kernelN*16 + kernelN/2*16)
	bytesRNS2   = float64(core.RNSChannels) * 2 * nttStages * (2*kernelN*8 + kernelN/2*16)
)

// kernelLayers derives the ring/ntt, blas and rns per-layer metrics from
// the traced calls' median CPU times (med, in microseconds), writes the
// spans, and counts allocations per call in a separate untimed pass.
func (s *kernelState) kernelLayers(tr *tracer, o options, med func(ops ...string) float64) (map[string]metric, error) {
	if err := writeTrace(o.traceDir, "kernels", o.seed, tr.snapshot()); err != nil {
		return nil, fmt.Errorf("writing kernels trace: %w", err)
	}
	m := map[string]metric{}
	for _, side := range []struct {
		name  string
		bytes float64
	}{{"u128", bytesU128}, {"rns2", bytesRNS2}} {
		fwd, inv := med("ntt."+side.name+".fwd"), med("ntt."+side.name+".inv")
		m["ntt."+side.name+".fwd_us"] = metric{fwd, "us"}
		m["ntt."+side.name+".inv_us"] = metric{inv, "us"}
		m["ntt."+side.name+".ns_per_bfly"] = metric{(fwd + inv) * 1e3 / bflyPerPair, "ns"}
		m["ntt."+side.name+".bytes"] = metric{side.bytes, "B_computed"}
		m["ntt."+side.name+".gbps"] = metric{side.bytes / ((fwd + inv) * 1e3), "GB/s_computed"}
	}
	m["ntt.dw_over_rns"] = metric{m["ntt.u128.ns_per_bfly"].Value / m["ntt.rns2.ns_per_bfly"].Value, "ratio"}
	for _, side := range []string{"u128", "rns2"} {
		for _, op := range []string{"add", "pmul", "axpy"} {
			m["blas."+side+"."+op+"_ns_per_elem"] = metric{med("blas."+side+"."+op) * 1e3 / kernelN, "ns"}
		}
	}
	for _, op := range []string{"extend", "fastbconv", "sk", "rescale_ntt"} {
		m["rns."+op+"_us"] = metric{med("rns." + op), "us"}
	}

	// Allocations per call, counted over a separate untimed pass.
	p := 0
	nttCalls := []func() error{
		func() error { s.plan.ForwardInto(s.f128, s.x128[p]); return nil },
		func() error { s.plan.InverseInto(s.z128, s.f128); return nil },
		func() error { return s.c2.NTTAll(s.f2, s.x2[p], 1) },
		func() error { return s.c2.INTTAll(s.z2, s.f2, 1) },
	}
	rnsCalls := []func() error{
		func() error { return s.mont.ConvertInto(s.ext4, s.x4[p]) },
		func() error { return s.sk.ConvertInto(s.back4, s.ext4) },
		func() error { return s.fastb.ConvertInto(s.fast4, s.x4[p]) },
		func() error { return s.rescale.RescaleNTTInto(s.resc3, s.xNTT[p], 1) },
	}
	for name, calls := range map[string][]func() error{"ntt.allocs_per_call": nttCalls, "rns.allocs_per_call": rnsCalls} {
		a, err := allocsPerCall(calls)
		if err != nil {
			return nil, err
		}
		m[name] = metric{a, "count"}
	}
	return m, nil
}

// allocsPerCall runs every call kernelAllocRuns times and returns the mean
// heap allocations per call.
func allocsPerCall(calls []func() error) (float64, error) {
	before := readMem()
	for range kernelAllocRuns {
		for _, f := range calls {
			if err := f(); err != nil {
				return 0, err
			}
		}
	}
	after := readMem()
	return float64(after.mallocs-before.mallocs) / float64(kernelAllocRuns*len(calls)), nil
}
