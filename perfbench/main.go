// Command perfbench is mqxgo's end-to-end benchmark: three seeded
// workloads driven through the library's public entry points, every
// output checked, and a separate traced run that attributes time to the
// layers (ring/ntt, blas, rns, fhe, serve).
//
//	perfbench --workload kernels|fhe-circuit|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the named workload runs untraced and the last line of
// standard output is a JSON object carrying the end-to-end metrics
// (setup_s, mem_mb, cpu_ms_per_op). With --trace 1
// every workload runs twice, untraced then traced, and the JSON carries
// the per-layer metrics; the spans are written to --trace-dir. The lines
// before the JSON echo the configuration and every metric by name, unit
// and sample count. A wrong result makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/ring"
)

// workloads lists the benchmark's workloads in the order the traced run
// visits them.
var workloads = []string{"kernels", "fhe-circuit", "serve-mix"}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	traceDir string
	// corrupt flips one bit of one checked output, to prove the checks
	// catch a wrong result.
	corrupt bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one reported figure with its sample count, for the
// human-readable lines that precede the JSON.
type named struct {
	name  string
	value float64
	unit  string
	n     int
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed, wrong int64
	// e2e holds the workload's cpu_ms_per_op.
	e2e map[string]metric
	// report lists the workload's own figures (wall-clock latencies,
	// kernel rates, allocation counts), printed but not gated.
	report []named
	// layer holds per-layer metrics (traced runs only).
	layer map[string]metric
	// tracedCost is the CPU milliseconds per operation including the
	// tracer's own work, which trace.overhead compares between the
	// untraced and traced halves.
	tracedCost float64
	// gcPauseMs and allocsPerUnit are the GC pause and heap allocations
	// per circuit or request over the measured loop (process-wide).
	gcPauseMs, allocsPerUnit float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: kernels, fhe-circuit or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	fs.BoolVar(&o.corrupt, "corrupt", false, "flip one checked output bit (the run must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloads)
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	o.measure = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong results; see the check lines above")
		return 1
	}
	return 0
}

// execute runs the invocation and assembles the final JSON object. An
// error means the benchmark itself could not run (set-up failed); wrong
// or failed operations are counted in the result instead.
func execute(o options, w io.Writer) (result, error) {
	printConfig(w, o)
	if !o.trace {
		out, setups, mem, err := runWorkload(o, o.workload, o.measure, false)
		if err != nil {
			return result{}, err
		}
		m := map[string]metric{
			"setup_s": {median(setups), "s"},
			"mem_mb":  {mem, "MB"},
		}
		for k, v := range out.e2e {
			m[k] = v
		}
		report(w, o.workload, out, setups, mem)
		return result{
			Correct:   out.wrong == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   m,
		}, nil
	}

	// The traced run visits every workload, so every per-layer metric is
	// present whichever workload was named: half of each share untraced
	// (the overhead baseline), half traced.
	res := result{Correct: true, Metrics: map[string]metric{}}
	share := o.measure / time.Duration(len(workloads))
	for _, wl := range workloads {
		base, _, _, err := runWorkload(o, wl, share/2, false)
		if err != nil {
			return result{}, err
		}
		traced, setups, mem, err := runWorkload(o, wl, share/2, true)
		if err != nil {
			return result{}, err
		}
		report(w, wl+" (untraced)", base, nil, 0)
		report(w, wl+" (traced)", traced, setups, mem)
		for k, v := range traced.layer {
			res.Metrics[k] = v
		}
		// Allocation and GC-pause counts come from the untraced half: the
		// tracer's own appends would inflate them.
		switch wl {
		case "fhe-circuit":
			res.Metrics["fhe.gc_pause_ms"] = metric{base.gcPauseMs, "ms"}
		case "serve-mix":
			res.Metrics["serve.gc_pause_ms"] = metric{base.gcPauseMs, "ms"}
			res.Metrics["serve.allocs_per_req"] = metric{base.allocsPerUnit, "count"}
		}
		// Overhead compares the CPU cost per operation of the two halves.
		res.Metrics["trace.overhead."+wl] = metric{traced.tracedCost/base.tracedCost - 1, "ratio"}
		for _, out := range []outcome{base, traced} {
			res.Attempted += out.attempted
			res.Failed += out.failed
			if out.wrong != 0 {
				res.Correct = false
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		v := res.Metrics[k]
		fmt.Fprintf(w, "layer %-34s %14.6g %s\n", k, v.Value, v.Unit)
	}
	return res, nil
}

// runWorkload dispatches one workload run of the given length.
func runWorkload(o options, wl string, d time.Duration, traced bool) (outcome, []float64, float64, error) {
	o.measure = d
	switch wl {
	case "kernels":
		return runKernels(o, traced)
	case "fhe-circuit":
		return runCircuit(o, traced)
	default:
		return runServeMix(o, traced)
	}
}

// printConfig echoes everything a reader needs to compare two reports.
func printConfig(w io.Writer, o options) {
	cfg := map[string]any{
		"workload":           o.workload,
		"seed":               o.seed,
		"seconds":            o.measure.Seconds(),
		"trace":              o.trace,
		"setups":             setupReps(o),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"goarch":             runtime.GOARCH,
		"cpu_features":       ring.CPUFeatures(),
		"kernel_tier_detect": ring.DetectKernelTier().String(),
		"kernel_tier_env":    ring.EnvKernelTier().String(),
		"kernel_tier":        selectedTier(),
		"params": map[string]any{
			"kernels":     kernelParams(),
			"fhe-circuit": circuitParams(),
			"serve-mix":   serveParams(),
		},
	}
	buf, _ := json.Marshal(cfg) // plain maps of strings and numbers always marshal
	fmt.Fprintf(w, "config %s\n", buf)
}

// selectedTier is the span-kernel tier an rns tower's plan (an
// ntt.Plan64 at the default tier) actually dispatches to, as the plan
// reports it.
func selectedTier() string {
	ps, err := modmath.FindNTTPrimes64(kernelRNSBits, 2*kernelN, 1)
	if err != nil {
		return "unknown: " + err.Error()
	}
	p, err := ntt.NewPlan64(modmath.MustModulus64(ps[0]), kernelN)
	if err != nil {
		return "unknown: " + err.Error()
	}
	return p.Generic().KernelTier()
}

// report prints one workload's figures, one per line.
func report(w io.Writer, label string, out outcome, setups []float64, mem float64) {
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "metric %-22s %-24s %14.6g %-8s n=%d\n", label, "fail_share", share, "ratio", out.attempted)
	if setups != nil {
		fmt.Fprintf(w, "metric %-22s %-24s %14.6g %-8s n=%d\n", label, "setup_s", median(setups), "s", len(setups))
		fmt.Fprintf(w, "metric %-22s %-24s %14.6g %-8s n=%d\n", label, "mem_mb", mem, "MB", 1)
	}
	for _, r := range out.report {
		fmt.Fprintf(w, "metric %-22s %-24s %14.6g %-8s n=%d\n", label, r.name, r.value, r.unit, r.n)
	}
}
