package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"mqxgo/internal/fhe"
	"mqxgo/internal/rns"
)

// The fhe-circuit workload is a leveled packed circuit on the library's
// default RNS backend (tower workers = GOMAXPROCS): three fresh packed
// vectors, a general multiply at level 0, a rotate-and-add fold of every
// slot row, a second multiply at level 1, and a decryption whose every
// slot is checked against the plaintext model.
const (
	circuitN       = 4096
	circuitK       = 4
	circuitBits    = 59
	circuitT       = 40961 // NTT-friendly at n=4096, so every slot is usable
	circuitWarmup  = 2
	circuitMinRuns = 5
	circuitAllocs  = 3 // circuits in the allocation-counting pass
)

func circuitParams() map[string]any {
	return map[string]any{
		"n": circuitN, "k": circuitK, "prime_bits": circuitBits, "t": circuitT,
		"tower_workers": runtime.GOMAXPROCS(0), "rotations": bits.Len(circuitN/2) - 1,
	}
}

// circuitState is the scheme, its keys and, in the traced run, the same
// backend behind the tracing forwarder.
type circuitState struct {
	bare *fhe.BackendScheme // the bare backend
	sch  *fhe.BackendScheme // what the timed loop drives: bare, or traced
	sk   fhe.BackendSecretKey
	rlk  fhe.BackendRelinKey
	gk   fhe.BackendGaloisKey
}

func buildCircuit(seed int64, tr *tracer) (*circuitState, error) {
	c, err := rns.NewContext(circuitBits, circuitK, circuitN)
	if err != nil {
		return nil, fmt.Errorf("circuit context: %w", err)
	}
	b, err := fhe.NewRNSBackend(c, circuitT)
	if err != nil {
		return nil, fmt.Errorf("circuit backend: %w", err)
	}
	s := &circuitState{bare: fhe.NewBackendScheme(b, seed)}
	s.sch = s.bare
	if tr != nil {
		s.sch = fhe.NewBackendScheme(wrapBackend(b, tr), seed)
	}
	s.sk = s.bare.KeyGen()
	if s.rlk, err = s.bare.RelinKeyGen(s.sk); err != nil {
		return nil, err
	}
	if s.gk, err = s.bare.GaloisKeyGen(s.sk); err != nil {
		return nil, err
	}
	if _, err := s.sch.SlotEncoder(); err != nil {
		return nil, err
	}
	return s, nil
}

// circuitInput is one circuit's three slot vectors and the slots its
// decryption must equal: each row's dot product of x and y, times z.
type circuitInput struct {
	x, y, z, want []uint64
}

func newCircuitInput(rng *rand.Rand) circuitInput {
	in := circuitInput{}
	for _, v := range []*[]uint64{&in.x, &in.y, &in.z} {
		*v = make([]uint64, circuitN)
		for j := range *v {
			(*v)[j] = uint64(rng.Intn(circuitT))
		}
	}
	rows := circuitN / 2
	in.want = make([]uint64, circuitN)
	for r := range 2 {
		dot := uint64(0)
		for j := r * rows; j < (r+1)*rows; j++ {
			dot = (dot + in.x[j]*in.y[j]) % circuitT
		}
		for j := r * rows; j < (r+1)*rows; j++ {
			in.want[j] = dot * in.z[j] % circuitT
		}
	}
	return in
}

// opMeter brackets each scheme call of a circuit: with a tracer it records
// a span and makes it the current span for the backend's spans; with
// allocs set it counts heap allocations per call instead. A nil meter
// does nothing.
type opMeter struct {
	tr          *tracer
	trace, root uint64
	allocs      map[string][]float64
	span        uint64
	mallocs     uint64
}

func (m *opMeter) begin(name string) {
	switch {
	case m == nil:
	case m.allocs != nil:
		m.mallocs = readMem().mallocs
	default:
		m.span = m.tr.begin(name, m.root, m.trace)
		m.tr.enter(m.trace, m.span)
	}
}

func (m *opMeter) end(name string) {
	switch {
	case m == nil:
	case m.allocs != nil:
		group, _, _ := strings.Cut(strings.TrimPrefix(name, "fhe."), "_")
		m.allocs[group] = append(m.allocs[group], float64(readMem().mallocs-m.mallocs))
	default:
		m.tr.end(m.span)
		m.tr.enter(m.trace, m.root)
	}
}

// circuit runs the leveled circuit on in with scheme sch and returns the
// decoded slots and the final ciphertext.
func (s *circuitState) circuit(sch *fhe.BackendScheme, in circuitInput, m *opMeter) ([]uint64, fhe.BackendCiphertext, error) {
	var none fhe.BackendCiphertext
	var cts [3]fhe.BackendCiphertext
	for i, v := range [][]uint64{in.x, in.y, in.z} {
		m.begin("fhe.encode")
		msg, err := sch.EncodeSlots(v)
		m.end("fhe.encode")
		if err != nil {
			return nil, none, fmt.Errorf("encode: %w", err)
		}
		m.begin("fhe.encrypt")
		cts[i], err = sch.Encrypt(s.sk, msg)
		m.end("fhe.encrypt")
		if err != nil {
			return nil, none, fmt.Errorf("encrypt: %w", err)
		}
	}
	m.begin("fhe.mulct_l0")
	acc, err := sch.MulCiphertexts(cts[0], cts[1], s.rlk)
	m.end("fhe.mulct_l0")
	if err != nil {
		return nil, none, fmt.Errorf("mulct l0: %w", err)
	}
	// Fold each slot row: log2(n/2) power-of-two rotations, one key-switch
	// hop each, leave every slot of a row holding the row's sum.
	for sh := circuitN / 4; sh >= 1; sh /= 2 {
		m.begin("fhe.rotate")
		rot, err := sch.RotateSlots(acc, sh, s.gk)
		m.end("fhe.rotate")
		if err != nil {
			return nil, none, fmt.Errorf("rotate %d: %w", sh, err)
		}
		m.begin("fhe.add")
		acc, err = sch.AddCiphertexts(acc, rot)
		m.end("fhe.add")
		if err != nil {
			return nil, none, fmt.Errorf("add: %w", err)
		}
	}
	var l1 [2]fhe.BackendCiphertext
	for i, ct := range []fhe.BackendCiphertext{acc, cts[2]} {
		m.begin("fhe.modswitch_l0")
		l1[i], err = sch.ModSwitch(ct)
		m.end("fhe.modswitch_l0")
		if err != nil {
			return nil, none, fmt.Errorf("modswitch l0: %w", err)
		}
	}
	m.begin("fhe.mulct_l1")
	prod, err := sch.MulCiphertexts(l1[0], l1[1], s.rlk)
	m.end("fhe.mulct_l1")
	if err != nil {
		return nil, none, fmt.Errorf("mulct l1: %w", err)
	}
	m.begin("fhe.modswitch_l1")
	out, err := sch.ModSwitch(prod)
	m.end("fhe.modswitch_l1")
	if err != nil {
		return nil, none, fmt.Errorf("modswitch l1: %w", err)
	}
	m.begin("fhe.decrypt")
	msg, err := sch.Decrypt(s.sk, out)
	m.end("fhe.decrypt")
	if err != nil {
		return nil, none, fmt.Errorf("decrypt: %w", err)
	}
	m.begin("fhe.decode")
	slots, err := sch.DecodeSlots(msg)
	m.end("fhe.decode")
	if err != nil {
		return nil, none, fmt.Errorf("decode: %w", err)
	}
	return slots, out, nil
}

// runCircuit is the fhe-circuit workload.
func runCircuit(o options, traced bool) (outcome, []float64, float64, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	s, setups, err := timeSetups(setupReps(o), func() (*circuitState, error) { return buildCircuit(o.seed, tr) }, nil)
	if err != nil {
		return outcome{}, nil, 0, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	for range circuitWarmup {
		if _, _, err := s.circuit(s.bare, newCircuitInput(rng), nil); err != nil {
			return outcome{}, nil, 0, fmt.Errorf("warm-up circuit: %w", err)
		}
	}
	tr.reset()

	out := outcome{}
	var times, cpus []float64
	var last fhe.BackendCiphertext
	before := readMem()
	deadline := time.Now().Add(o.measure)
	for i := 0; time.Now().Before(deadline) || len(times) < circuitMinRuns; i++ {
		in := newCircuitInput(rng)
		var m *opMeter
		id := uint64(i + 1)
		root := tr.begin("circuit", 0, id)
		if tr != nil {
			m = &opMeter{tr: tr, trace: id, root: root}
			tr.enter(id, root)
		}
		out.attempted++
		start := time.Now()
		c0 := processCPU()
		slots, ct, err := s.circuit(s.sch, in, m)
		cpu := processCPU() - c0
		d := time.Since(start)
		tr.end(root)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "check fhe-circuit %d: %v\n", i, err)
			continue
		}
		if o.corrupt && i == 0 {
			slots[circuitN-1] ^= 1
		}
		if j := firstMismatch(slots, in.want); j >= 0 {
			out.failed++
			out.wrong++
			fmt.Fprintf(os.Stderr, "check fhe-circuit %d: slot %d = %d, want %d\n", i, j, slots[j], in.want[j])
			continue
		}
		times = append(times, ms(d))
		cpus = append(cpus, ms(cpu))
		last = ct
	}
	after := readMem()
	n := len(times)
	out.gcPauseMs = float64(after.pauseNs-before.pauseNs) / 1e6 / float64(max(n, 1))
	out.allocsPerUnit = float64(after.mallocs-before.mallocs) / float64(max(n, 1))
	out.e2e = map[string]metric{"cpu_ms_per_op": {median(cpus), "ms"}}
	out.tracedCost = median(cpus)
	out.report = []named{
		{"circuit_cpu_p50_ms", median(cpus), "ms", n},
		{"circuit_cpu_p95_ms", percentile(cpus, 0.95), "ms", n},
		{"circuit_per_s", float64(n) / (sum(times) / 1e3), "1/s", n},
		{"circuit_p50_ms", median(times), "ms", n},
		{"circuit_p95_ms", percentile(times, 0.95), "ms", n},
		{"gc_pause_ms_per_circuit", out.gcPauseMs, "ms", n},
		{"allocs_per_circuit", out.allocsPerUnit, "count", n},
	}
	if n > 0 {
		// The slot vector is not the message polynomial, so the budget is
		// measured against the decrypted message itself.
		if msg, err := s.bare.Decrypt(s.sk, last); err == nil {
			if budget, err := s.bare.NoiseBudgetBits(s.sk, last, msg); err == nil {
				out.report = append(out.report, named{"budget_bits_left", float64(budget), "bits", 1})
			}
		}
	}
	if traced {
		if out.layer, err = s.circuitLayers(tr, o, rng); err != nil {
			return outcome{}, nil, 0, err
		}
	}
	mem := liveHeapMB()
	runtime.KeepAlive(s)
	return out, setups, mem, nil
}

func firstMismatch(got, want []uint64) int {
	if len(got) != len(want) {
		return 0
	}
	for j := range got {
		if got[j] != want[j] {
			return j
		}
	}
	return -1
}

// circuitLayers derives the fhe per-layer metrics from the spans, and
// counts allocations per scheme call on the bare backend.
func (s *circuitState) circuitLayers(tr *tracer, o options, rng *rand.Rand) (map[string]metric, error) {
	spans := tr.snapshot()
	if err := writeTrace(o.traceDir, "fhe-circuit", o.seed, spans); err != nil {
		return nil, fmt.Errorf("writing fhe-circuit trace: %w", err)
	}
	names := byName(spans)
	circuits := names["circuit"]
	total := sum(circuits)
	m := map[string]metric{}
	for _, op := range []string{"encode", "encrypt", "mulct_l0", "mulct_l1", "rotate", "add", "modswitch_l0", "modswitch_l1", "decrypt", "decode"} {
		m["fhe."+op+"_us"] = metric{median(names["fhe."+op]), "us"}
	}
	share := func(ops ...string) float64 {
		t := 0.0
		for _, op := range ops {
			t += sum(names["fhe."+op])
		}
		return t / total
	}
	m["fhe.mulct.share"] = metric{share("mulct_l0", "mulct_l1"), "ratio"}
	m["fhe.rotate.share"] = metric{share("rotate"), "ratio"}
	m["fhe.modswitch.share"] = metric{share("modswitch_l0", "modswitch_l1"), "ratio"}
	m["fhe.encrypt.share"] = metric{share("encrypt"), "ratio"}
	m["fhe.decrypt.share"] = metric{share("decrypt"), "ratio"}
	m["fhe.codec.share"] = metric{share("encode", "decode"), "ratio"}
	// Coverage: how much of circuit time the top-level fhe spans explain.
	m["fhe.span_coverage"] = metric{share("encode", "encrypt", "mulct_l0", "mulct_l1", "rotate", "add",
		"modswitch_l0", "modswitch_l1", "decrypt", "decode"), "ratio"}

	self := selfTimes(spans)
	perCircuit := map[uint64]float64{}
	for _, sp := range spans {
		if sp.layer() == "fhe" {
			perCircuit[sp.Trace] += us(self[sp.ID])
		}
	}
	var selfUS []float64
	for _, v := range perCircuit {
		selfUS = append(selfUS, v)
	}
	m["fhe.scheme_self_us"] = metric{median(selfUS), "us"}
	for _, op := range []string{"MulCt", "RotateSlots", "ModSwitch", "ToNTT", "ToCoeff", "CheckCiphertext"} {
		xs := names["backend."+op]
		m["backend."+op+"_us"] = metric{median(xs), "us"}
		m["backend."+op+".calls"] = metric{float64(len(xs)) / float64(len(circuits)), "count"}
	}

	meter := &opMeter{allocs: map[string][]float64{}}
	for range circuitAllocs {
		if _, _, err := s.circuit(s.bare, newCircuitInput(rng), meter); err != nil {
			return nil, fmt.Errorf("allocation pass: %w", err)
		}
	}
	for _, op := range []string{"mulct", "rotate", "modswitch", "encrypt", "decrypt"} {
		m["fhe."+op+".allocs"] = metric{median(meter.allocs[op]), "count"}
	}
	return m, nil
}
