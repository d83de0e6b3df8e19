package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mqxgo/internal/fhe"
	"mqxgo/internal/ring"
	"mqxgo/internal/rns"
	"mqxgo/internal/serve"
)

// The serve-mix workload drives serve.New(...).Handler() over loopback
// HTTP, built the way cmd/fheserver builds it at its default flags, with
// two closed-loop clients, each its own tenant. Every cycle uploads a fresh
// encryption, multiplies it four times into a reused handle, rotates,
// switches modulus, decrypts and checks the result, then frees the upload.
const (
	serveN       = 1024
	serveK       = 3
	serveBits    = 59
	serveT       = 257
	serveWorkers = 2 // -eval-workers
	serveQueue   = 8 // -queue
	serveTimeout = 2 * time.Second
	serveFloor   = 2
	serveClients = 2 // closed-loop clients, one connection each
	serveMuls    = 4 // multiplies per cycle
	servePool    = 16
	serveWarmup  = 2 // cycles per client before timing
	serveWindow  = 500 * time.Millisecond
)

// cycleOps is how many requests of each operation one cycle sends.
var cycleOps = map[string]int{"encrypt": 1, "mul": serveMuls, "rotate": 1, "modswitch": 1, "decrypt": 1, "free": 1}

func serveParams() map[string]any {
	return map[string]any{
		"n": serveN, "k": serveK, "prime_bits": serveBits, "t": serveT,
		"tower_workers": 1, "eval_workers": serveWorkers, "queue": serveQueue,
		"timeout_ms": serveTimeout.Milliseconds(), "budget_floor_bits": serveFloor,
		"clients": serveClients, "muls_per_cycle": serveMuls, "requests_per_cycle": serveMuls + 5,
	}
}

// serveState is one booted server, its listener and the tenants' handles.
type serveState struct {
	srv     *serve.Server
	hs      *http.Server
	done    chan error
	base    string
	tr      *tracer
	cpu     *handlerCPU
	client  *http.Client
	tenants [serveClients]*tenantState
	nextReq atomic.Uint64
}

// tenantState is one client's tenant: its fixed operand y, the reused
// destination handles, and the precomputed inputs and expected results.
type tenantState struct {
	name                string
	y                   []uint64
	yH, outH, rotH, msH string
	xs, want            [][]uint64
}

// request mirrors the JSON body the serve API decodes.
type request struct {
	Tenant string   `json:"tenant"`
	Op     string   `json:"op,omitempty"`
	Args   []string `json:"args,omitempty"`
	Out    string   `json:"out,omitempty"`
	Steps  int      `json:"steps,omitempty"`
	Values []uint64 `json:"values,omitempty"`
	Handle string   `json:"handle,omitempty"`
}

type response struct {
	Handle string   `json:"handle"`
	Level  int      `json:"level"`
	Values []uint64 `json:"values"`
}

// reqStats is one client's tally.
type reqStats struct {
	lat                      map[string][]float64 // ms, successful requests only
	attempted, failed, wrong int64
	ok                       int64 // successful requests
	bytes                    int64
}

// cpuWindows splits the measured loop into fixed wall-clock windows and
// keeps each window's process CPU per successful request, so that one
// disturbed stretch of a run moves the median of the windows little.
type cpuWindows struct {
	mu         sync.Mutex
	end        time.Time
	cpu        time.Duration // process CPU at the window's start
	done, mark int64         // successful requests so far, and at the window's start
	perReq     []float64     // CPU milliseconds per request, one per closed window
}

func newCPUWindows(start time.Time) *cpuWindows {
	return &cpuWindows{end: start.Add(serveWindow), cpu: processCPU()}
}

// add counts n more successful requests and closes the window once its
// time is up. The unfinished last window is dropped.
func (w *cpuWindows) add(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done += n
	if now := time.Now(); now.After(w.end) && w.done > w.mark {
		cpu := processCPU()
		w.perReq = append(w.perReq, ms(cpu-w.cpu)/float64(w.done-w.mark))
		w.cpu, w.mark, w.end = cpu, w.done, now.Add(serveWindow)
	}
}

// hdrOp names a request's operation for handlerCPU.
const hdrOp = "X-Perfbench-Op"

// handlerCPU keeps, per operation, the least CPU time the server's handler
// took for one successful request. The handler serves a request on one
// goroutine from start to end (the evaluation too, with one tower worker),
// and the wrapper locks that goroutine to its thread, so the thread's CPU
// clock times exactly the handler's work.
type handlerCPU struct {
	mu      sync.Mutex
	fastest map[string]time.Duration
}

func newHandlerCPU() *handlerCPU {
	return &handlerCPU{fastest: map[string]time.Duration{}}
}

func (c *handlerCPU) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.fastest)
}

func (c *handlerCPU) add(op string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.fastest[op]; !ok || d < f {
		c.fastest[op] = d
	}
}

// perRequest is the cycle's fastest handler CPU per request, in ms.
func (c *handlerCPU) perRequest() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total, n := 0.0, 0
	for op, k := range cycleOps {
		total += float64(k) * ms(c.fastest[op])
		n += k
	}
	return total / float64(n)
}

// statusWriter records the status the handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap times every request h serves; a non-2xx answer is not timed.
func (c *handlerCPU) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		c0 := threadCPU()
		h.ServeHTTP(sw, r)
		d := threadCPU() - c0
		if sw.status/100 == 2 {
			c.add(r.Header.Get(hdrOp), d)
		}
	})
}

func bootServe(seed int64, tr *tracer) (*serveState, error) {
	c, err := rns.NewContext(serveBits, serveK, serveN)
	if err != nil {
		return nil, fmt.Errorf("serve context: %w", err)
	}
	b, err := fhe.NewRNSBackendWorkers(c, serveT, 1)
	if err != nil {
		return nil, fmt.Errorf("serve backend: %w", err)
	}
	if tr != nil {
		b = wrapBackend(b, tr)
	}
	s := &serveState{tr: tr, done: make(chan error, 1)}
	s.srv = serve.New(serve.Config{
		Scheme:          fhe.NewBackendScheme(b, seed),
		Workers:         serveWorkers,
		QueueDepth:      serveQueue,
		RequestTimeout:  serveTimeout,
		BudgetFloorBits: serveFloor,
	})
	s.cpu = newHandlerCPU()
	h := s.cpu.wrap(s.srv.Handler())
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	return s, nil
}

// close drains the server, shuts the listener and waits for it to exit.
func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve shutdown: %v\n", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve listener: %v\n", err)
	}
	s.client.CloseIdleConnections()
}

// post sends one request and decodes the reply; a non-2xx status is an
// error. It returns the client-side latency and the bytes moved.
func (s *serveState) post(path, op string, body request, st *reqStats) (response, time.Duration, error) {
	var resp response
	id := s.nextReq.Add(1)
	span := s.tr.begin("client."+op, 0, id)
	defer s.tr.end(span)
	start := time.Now()
	buf, err := json.Marshal(body)
	if err != nil {
		return resp, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(buf))
	if err != nil {
		return resp, 0, err
	}
	req.Header.Set(hdrOp, op)
	if s.tr != nil {
		req.Header.Set(hdrTrace, strconv.FormatUint(id, 10))
		req.Header.Set(hdrSpan, strconv.FormatUint(span, 10))
	}
	r, err := s.client.Do(req)
	if err != nil {
		return resp, 0, err
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return resp, 0, err
	}
	if r.StatusCode/100 != 2 {
		return resp, 0, fmt.Errorf("%s %s: status %d: %s", path, op, r.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, 0, fmt.Errorf("%s %s: %w", path, op, err)
	}
	d := time.Since(start)
	if st != nil {
		st.bytes += int64(len(buf) + len(raw))
	}
	return resp, d, nil
}

// keygenTenants registers every client's tenant: the keys are set-up.
func (s *serveState) keygenTenants() error {
	for i := range s.tenants {
		t := &tenantState{name: fmt.Sprintf("client-%d", i)}
		if _, _, err := s.post("/v1/keygen", "keygen", request{Tenant: t.name}, nil); err != nil {
			return err
		}
		s.tenants[i] = t
	}
	return nil
}

// setupHandles creates every tenant's fixed operand and reused
// destination handles with one bootstrap cycle.
func (s *serveState) setupHandles(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, t := range s.tenants {
		t.y = randPoly(rng)
		r, _, err := s.post("/v1/encrypt", "encrypt", request{Tenant: t.name, Values: t.y}, nil)
		if err != nil {
			return err
		}
		t.yH = r.Handle
		x, _, err := s.post("/v1/encrypt", "encrypt", request{Tenant: t.name, Values: randPoly(rng)}, nil)
		if err != nil {
			return err
		}
		steps := []struct {
			op   string
			req  request
			dest *string
		}{
			{"mul", request{Tenant: t.name, Op: "mul", Args: []string{x.Handle, t.yH}}, &t.outH},
			{"rotate", request{Tenant: t.name, Op: "rotate", Steps: 1}, &t.rotH},
			{"modswitch", request{Tenant: t.name, Op: "modswitch"}, &t.msH},
		}
		prev := ""
		for _, st := range steps {
			if prev != "" {
				st.req.Args = []string{prev}
			}
			r, _, err := s.post("/v1/eval", st.op, st.req, nil)
			if err != nil {
				return err
			}
			*st.dest, prev = r.Handle, r.Handle
		}
		if _, _, err := s.post("/v1/eval", "free", request{Tenant: t.name, Op: "free", Args: []string{x.Handle}}, nil); err != nil {
			return err
		}
	}
	return nil
}

// prepareInputs fills every tenant's pool of x vectors with the slots its
// cycle's decryption must equal: the rotation automorphism applied to the
// negacyclic product x*y mod T.
func (s *serveState) prepareInputs(seed int64) {
	rng := rand.New(rand.NewSource(seed + 7))
	g := ring.RotationElement(serveN, 1)
	for _, t := range s.tenants {
		t.xs, t.want = make([][]uint64, servePool), make([][]uint64, servePool)
		for p := range servePool {
			t.xs[p] = randPoly(rng)
			t.want[p] = galois(negacyclicModT(t.xs[p], t.y, serveT), g, serveT)
		}
	}
}

func randPoly(rng *rand.Rand) []uint64 {
	v := make([]uint64, serveN)
	for j := range v {
		v[j] = uint64(rng.Intn(serveT))
	}
	return v
}

// negacyclicModT is the schoolbook product in Z_t[x]/(x^n + 1), written
// independently of the library. Products of residues below t are summed
// unreduced (n*t^2 stays far below 2^64 for the sizes used here).
func negacyclicModT(a, b []uint64, t uint64) []uint64 {
	n := len(a)
	pos, neg := make([]uint64, n), make([]uint64, n)
	for i, ai := range a {
		for j, bj := range b {
			if k := i + j; k < n {
				pos[k] += ai * bj
			} else {
				neg[k-n] += ai * bj
			}
		}
	}
	out := make([]uint64, n)
	for k := range out {
		out[k] = (pos[k]%t + t - neg[k]%t) % t
	}
	return out
}

// galois applies the automorphism x -> x^g to a polynomial mod x^n + 1:
// coefficient i moves to i*g mod 2n, negated when that lands at or past n.
func galois(a []uint64, g, t uint64) []uint64 {
	n := uint64(len(a))
	out := make([]uint64, n)
	for i, v := range a {
		k := uint64(i) * g % (2 * n)
		if k < n {
			out[k] = v
		} else {
			out[k-n] = (t - v) % t
		}
	}
	return out
}

// cycle runs one client cycle on pool entry p. A failed request aborts
// the cycle; its latency is not recorded.
func (s *serveState) cycle(t *tenantState, p int, st *reqStats, corrupt bool) {
	name := t.name
	do := func(path, op string, req request) (response, bool) {
		st.attempted++
		r, d, err := s.post(path, op, req, st)
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "check serve-mix %s: %v\n", name, err)
			return r, false
		}
		st.ok++
		st.lat[op] = append(st.lat[op], ms(d))
		return r, true
	}
	x, ok := do("/v1/encrypt", "encrypt", request{Tenant: name, Values: t.xs[p]})
	if !ok {
		return
	}
	defer do("/v1/eval", "free", request{Tenant: name, Op: "free", Args: []string{x.Handle}})
	for range serveMuls {
		if _, ok := do("/v1/eval", "mul", request{Tenant: name, Op: "mul", Args: []string{x.Handle, t.yH}, Out: t.outH}); !ok {
			return
		}
	}
	if _, ok := do("/v1/eval", "rotate", request{Tenant: name, Op: "rotate", Args: []string{t.outH}, Out: t.rotH, Steps: 1}); !ok {
		return
	}
	if _, ok := do("/v1/eval", "modswitch", request{Tenant: name, Op: "modswitch", Args: []string{t.rotH}, Out: t.msH}); !ok {
		return
	}
	r, ok := do("/v1/decrypt", "decrypt", request{Tenant: name, Handle: t.msH})
	if !ok {
		return
	}
	if corrupt && len(r.Values) > 0 {
		r.Values[0] ^= 1
	}
	if j := firstMismatch(r.Values, t.want[p]); j >= 0 {
		st.failed++
		st.wrong++
		got := uint64(0)
		if j < len(r.Values) {
			got = r.Values[j]
		}
		fmt.Fprintf(os.Stderr, "check serve-mix %s: coefficient %d = %d, want %d\n", name, j, got, t.want[p][j])
	}
}

// snapshot reads /v1/metrics.
func (s *serveState) snapshot() (serve.Snapshot, error) {
	var snap serve.Snapshot
	r, err := s.client.Get(s.base + "/v1/metrics")
	if err != nil {
		return snap, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/v1/metrics: status %d", r.StatusCode)
	}
	return snap, json.NewDecoder(r.Body).Decode(&snap)
}

// runServeMix is the serve-mix workload.
func runServeMix(o options, traced bool) (outcome, []float64, float64, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	s, setups, err := timeSetups(setupReps(o), func() (*serveState, error) {
		s, err := bootServe(o.seed, tr)
		if err != nil {
			return nil, err
		}
		if err := s.keygenTenants(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*serveState).close)
	if err != nil {
		return outcome{}, nil, 0, err
	}
	defer s.close()
	if err := s.setupHandles(o.seed); err != nil {
		return outcome{}, nil, 0, fmt.Errorf("serve handles: %w", err)
	}
	s.prepareInputs(o.seed)

	stats := make([]*reqStats, serveClients)
	for i := range stats {
		stats[i] = &reqStats{lat: map[string][]float64{}}
	}
	// Warm-up cycles: plan caches, pools and connections.
	for i, t := range s.tenants {
		for c := range serveWarmup {
			s.cycle(t, c, stats[i], false)
		}
	}
	var warmFailed, warmWrong, warmAttempted int64
	for i := range stats {
		warmAttempted += stats[i].attempted
		warmFailed += stats[i].failed
		warmWrong += stats[i].wrong
		stats[i] = &reqStats{lat: map[string][]float64{}}
	}
	tr.reset()
	s.cpu.reset()

	before := readMem()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(o.measure)
	win := newCPUWindows(start)
	var wg sync.WaitGroup
	for i, t := range s.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := stats[i]
			for c := 0; time.Now().Before(deadline); c++ {
				ok := st.ok
				s.cycle(t, c%servePool, st, o.corrupt && i == 0 && c == 0)
				win.add(st.ok - ok)
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	cpu := processCPU() - cpu0
	after := readMem()

	out := outcome{attempted: warmAttempted, failed: warmFailed, wrong: warmWrong}
	lat := map[string][]float64{}
	var bytesMoved int64
	for _, st := range stats {
		out.attempted += st.attempted
		out.failed += st.failed
		out.wrong += st.wrong
		bytesMoved += st.bytes
		for op, xs := range st.lat {
			lat[op] = append(lat[op], xs...)
		}
	}
	completed := 0
	for _, xs := range lat {
		completed += len(xs)
	}
	out.gcPauseMs = float64(after.pauseNs-before.pauseNs) / 1e6 / float64(max(completed, 1))
	out.allocsPerUnit = float64(after.mallocs-before.mallocs) / float64(max(completed, 1))
	muls := lat["mul"]
	// Client and server share the process, so the process CPU per request
	// covers both ends of the loopback connection; it is reported over the
	// windows (short runs that close no window fall back to the whole loop)
	// and compares the traced and untraced runs. The gated figure is the
	// server's: per request of a cycle, the handler's fastest call of each
	// operation. The handler's work is the same on every call of an
	// operation, so a slower call was slowed by something else: on a shared
	// host a neighbour's load slows the cores by up to 1.8x for seconds at a
	// time, and the process CPU of whole windows moved with it by 10-16%
	// between runs of the same code.
	cpuPerReq := ms(cpu) / float64(max(completed, 1))
	winPerReq := cpuPerReq
	if len(win.perReq) > 0 {
		winPerReq = median(win.perReq)
	}
	handlerPerReq := s.cpu.perRequest()
	out.e2e = map[string]metric{"cpu_ms_per_op": {handlerPerReq, "ms"}}
	out.tracedCost = winPerReq
	out.report = []named{
		{"serve_handler_cpu_ms_per_req_fastest", handlerPerReq, "ms", completed},
		{"serve_cpu_ms_per_req_windows_p50", winPerReq, "ms", len(win.perReq)},
		{"serve_cpu_ms_per_req", cpuPerReq, "ms", completed},
		{"serve_req_per_s", float64(completed) / window.Seconds(), "1/s", completed},
		{"serve_mul_p50_ms", median(muls), "ms", len(muls)},
		{"serve_mul_p99_ms", percentile(muls, 0.99), "ms", len(muls)},
		{"gc_pause_ms_per_req", out.gcPauseMs, "ms", completed},
		{"allocs_per_req", out.allocsPerUnit, "count", completed},
	}
	if traced {
		if out.layer, err = s.serveLayers(o, float64(bytesMoved)/float64(max(completed, 1))); err != nil {
			return outcome{}, nil, 0, err
		}
	}
	mem := liveHeapMB()
	return out, setups, mem, nil
}

// serveLayers derives the serve per-layer metrics from the spans and the
// server's /v1/metrics counters.
func (s *serveState) serveLayers(o options, bytesPerReq float64) (map[string]metric, error) {
	spans := s.tr.snapshot()
	if err := writeTrace(o.traceDir, "serve-mix", o.seed, spans); err != nil {
		return nil, fmt.Errorf("writing serve-mix trace: %w", err)
	}
	names := byName(spans)
	m := map[string]metric{}
	for _, op := range []string{"encrypt", "mul", "rotate", "modswitch", "decrypt", "free"} {
		m["serve."+op+"_ms"] = metric{median(names["client."+op]) / 1e3, "ms"}
	}
	m["serve.outside_eval_us"] = metric{median(names["client.mul"]) - median(names["backend.MulCt"]), "us"}
	clientUS, backendUS := 0.0, 0.0
	for _, sp := range spans {
		switch sp.layer() {
		case "client":
			clientUS += us(sp.dur())
		case "backend":
			backendUS += us(sp.dur())
		}
	}
	m["serve.backend_share"] = metric{backendUS / clientUS, "ratio"}
	m["serve.bytes_per_req"] = metric{bytesPerReq, "B"}
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	for name, v := range map[string]uint64{
		"admitted": snap.Admitted, "completed": snap.Completed, "shed": snap.Shed,
		"deadlines": snap.Deadlines, "failed_4xx": snap.Failed4xx, "failed_5xx": snap.Failed5xx,
		"quarantined": snap.Quarantined,
	} {
		m["serve."+name] = metric{float64(v), "count"}
	}
	return m, nil
}
