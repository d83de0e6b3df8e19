package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mqxgo/internal/fhe"
	"mqxgo/internal/modmath"
	"mqxgo/internal/rns"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// bench runs the command in-process and decodes its last output line.
func bench(t *testing.T, args ...string) (result, int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result (%v)\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return res, code, out.String() + errb.String()
}

// checkMetrics asserts that got holds exactly the contract's metrics, with
// their units, each a finite number.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []contractMetric) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", label, m.Name, v.Unit, m.Unit)
		case v.Value != v.Value:
			t.Errorf("%s: metric %s is NaN", label, m.Name)
		}
	}
	for name := range got {
		if !slices.Contains(names, name) {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

func TestWorkloadsMatchContract(t *testing.T) {
	var names []string
	for _, w := range loadContract(t).Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
}

// TestShortRuns runs every workload briefly and checks the result line.
func TestShortRuns(t *testing.T) {
	c := loadContract(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, code, log := bench(t, "--workload", wl, "--seed", "3", "--seconds", "0.3")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, log)
			}
			checkMetrics(t, wl, res.Metrics, c.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks that one traced run emits every per-layer metric,
// writes its spans, and that the top-level fhe spans explain the circuit.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	res, code, log := bench(t, "--workload", "kernels", "--seed", "5", "--seconds", "1.5", "--trace", "1", "--trace-dir", dir)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, log)
	}
	checkMetrics(t, "traced", res.Metrics, loadContract(t).PerLayer)
	if cov := res.Metrics["fhe.span_coverage"].Value; cov < 0.95 {
		t.Errorf("top-level fhe spans cover %.3f of circuit time, want >= 0.95", cov)
	}
	for _, wl := range workloads {
		raw, err := os.ReadFile(filepath.Join(dir, wl+"-seed5.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans       []span             `json:"spans"`
			LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s trace: %v", wl, err)
		}
		if len(doc.Spans) == 0 || len(doc.LayerSelfMS) == 0 {
			t.Errorf("%s trace holds %d spans, %d layers", wl, len(doc.Spans), len(doc.LayerSelfMS))
		}
		for _, s := range doc.Spans {
			// Backend calls the server makes without a request context
			// (encrypt, decrypt) cannot be tied to their request.
			unlinked := wl == "serve-mix" && s.layer() == "backend"
			if s.End < s.Start || (s.Trace == 0 && !unlinked) {
				t.Errorf("%s: malformed span %+v", wl, s)
				break
			}
		}
	}
}

// TestCorruptedOutputFails flips one checked output bit in every workload
// and expects the run to report it and exit nonzero.
func TestCorruptedOutputFails(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, code, log := bench(t, "--workload", wl, "--seconds", "0.2", "--corrupt")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted run: exit %d, result %+v\n%s", code, res, log)
			}
		})
	}
}

type fakeBackend struct{ fhe.Backend }
type fakeDeadline struct{ fhe.DeadlineBackend }
type fakeRotate struct{ fhe.RotateDeadlineBackend }
type fakeNoise struct{ fhe.NoiseModeler }

// fakeWith returns a backend implementing exactly the optional interfaces
// asked for (its methods are never called).
func fakeWith(dl, rd, nm bool) fhe.Backend {
	switch {
	case dl && rd && nm:
		return struct {
			fakeBackend
			fakeDeadline
			fakeRotate
			fakeNoise
		}{}
	case dl && rd:
		return struct {
			fakeBackend
			fakeDeadline
			fakeRotate
		}{}
	case dl && nm:
		return struct {
			fakeBackend
			fakeDeadline
			fakeNoise
		}{}
	case rd && nm:
		return struct {
			fakeBackend
			fakeRotate
			fakeNoise
		}{}
	case dl:
		return struct {
			fakeBackend
			fakeDeadline
		}{}
	case rd:
		return struct {
			fakeBackend
			fakeRotate
		}{}
	case nm:
		return struct {
			fakeBackend
			fakeNoise
		}{}
	default:
		return fakeBackend{}
	}
}

func optional(b fhe.Backend) [3]bool {
	_, dl := b.(fhe.DeadlineBackend)
	_, rd := b.(fhe.RotateDeadlineBackend)
	_, nm := b.(fhe.NoiseModeler)
	return [3]bool{dl, rd, nm}
}

// TestTracedBackendInterfaces checks that the tracing forwarder implements
// each optional fhe interface exactly when the wrapped backend does, so
// the scheme and the server take the same paths traced and untraced.
func TestTracedBackendInterfaces(t *testing.T) {
	for mask := range 8 {
		inner := fakeWith(mask&1 != 0, mask&2 != 0, mask&4 != 0)
		if got, want := optional(wrapBackend(inner, newTracer())), optional(inner); got != want {
			t.Errorf("mask %03b: wrapped implements %v, inner %v", mask, got, want)
		}
	}
	c, err := rns.NewContext(59, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fhe.NewRNSBackend(c, 97)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fhe.NewParams(modmath.DefaultModulus128(), 16, 97)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []fhe.Backend{rb, fhe.NewRingBackend(p)} {
		if got, want := optional(wrapBackend(b, nil)), optional(b); got != want {
			t.Errorf("%s: wrapped implements %v, inner %v", b.Name(), got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "circuit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "fhe.a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Trace: 1, Name: "backend.x", Start: 15, End: 25},
		{ID: 4, Parent: 2, Trace: 1, Name: "backend.y", Start: 20, End: 30}, // overlaps x
		{ID: 5, Parent: 1, Trace: 1, Name: "fhe.b", Start: 50, End: 90},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 30, 2: 15, 3: 10, 4: 10, 5: 40}
	for id, w := range want {
		if int64(self[id]) != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if got := math.Round(layers["fhe"] * 1e6); got != 55 {
		t.Errorf("fhe layer self %.0f ns, want 55", got)
	}
}

// TestServeReference checks the independent plaintext model the serve-mix
// checks use against the library's schoolbook product and the automorphism
// group law.
func TestServeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, tm = 16, 257
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(rng.Intn(tm)), uint64(rng.Intn(tm))
	}
	if got, want := negacyclicModT(a, b, tm), fhe.NegacyclicProductModT(a, b, tm); !slices.Equal(got, want) {
		t.Fatalf("negacyclic product %v, library %v", got, want)
	}
	if !slices.Equal(galois(a, 1, tm), a) {
		t.Error("x -> x^1 is not the identity")
	}
	for _, g := range []uint64{3, 5, 9, 2*n - 1} {
		for _, h := range []uint64{3, 7, 2*n - 1} {
			if got, want := galois(galois(a, g, tm), h, tm), galois(a, g*h%(2*n), tm); !slices.Equal(got, want) {
				t.Errorf("tau_%d(tau_%d(a)) != tau_%d(a)", h, g, g*h%(2*n))
			}
		}
	}
}

// TestHandlerCPU checks that the serve-mix handler timer keeps only 2xx
// answers and weights each operation by its requests per cycle.
func TestHandlerCPU(t *testing.T) {
	c := newHandlerCPU()
	status := http.StatusTooManyRequests
	h := c.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(status) }))
	send := func(op string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/eval", nil)
		req.Header.Set(hdrOp, op)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	send("mul")
	if _, ok := c.fastest["mul"]; ok {
		t.Fatal("a 429 answer was timed")
	}
	status = http.StatusOK
	for op := range cycleOps {
		send(op)
	}
	if len(c.fastest) != len(cycleOps) {
		t.Fatalf("timed %v, want every operation of %v", c.fastest, cycleOps)
	}
	c.reset()
	c.add("mul", 9*time.Millisecond)
	c.add("mul", 18*time.Millisecond) // slower than the fastest: ignored
	want := float64(cycleOps["mul"]) * 9 / float64(serveMuls+5)
	if got := c.perRequest(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("perRequest = %v ms, want %v", got, want)
	}
}
