package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Trace groups the spans of one round, circuit or
// request; Parent is 0 for a root (or when the caller is unknown).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's first dot-separated element.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the same workload code runs
// both modes.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// curSpan and curTrace are the span a single-goroutine workload loop
	// is inside; backend spans recorded without a request context take it
	// as their parent.
	curSpan, curTrace atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, parent, trace uint64) uint64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id now.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller already measured.
func (t *tracer) record(name string, parent, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// enter marks span id of trace as the workload loop's current span.
func (t *tracer) enter(trace, id uint64) {
	if t == nil {
		return
	}
	t.curTrace.Store(trace)
	t.curSpan.Store(id)
}

// reset drops every span recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// spanCtxKey carries a request's trace and parent span into the backend.
type spanCtxKey struct{}

type spanRef struct{ trace, parent uint64 }

// current returns the workload loop's current trace and span.
func (t *tracer) current() (trace, span uint64) {
	return t.curTrace.Load(), t.curSpan.Load()
}

// requestSpan returns the trace and span a request context carries, or the
// workload loop's current span when it carries none.
func (t *tracer) requestSpan(ctx context.Context) (trace, span uint64) {
	if r, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return r.trace, r.parent
	}
	return t.current()
}

// Request headers that link a client span to the server's spans.
const (
	hdrTrace = "X-Perfbench-Trace"
	hdrSpan  = "X-Perfbench-Span"
)

// traceHandler wraps the server's handler: it records a span per request,
// parented to the client span named in the headers, and hands its own span
// to the backend through the request context.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		id := t.begin("serve"+strings.ReplaceAll(r.URL.Path, "/", "."), parent, trace)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{trace: trace, parent: id})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(id)
	})
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		slices.SortFunc(ch, func(a, b span) int { return int(a.Start - b.Start) })
		covered := int64(0)
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time per layer, in milliseconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += ms(self[s.ID])
	}
	return out
}

// byName groups span durations by name, in microseconds.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], us(s.dur()))
	}
	return out
}

// writeTrace writes the spans and per-layer self times as one JSON
// document per workload under dir.
func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	doc := struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{workload, seed, layerSelf(spans), spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
