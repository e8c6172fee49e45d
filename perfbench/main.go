// Command perfbench measures EASYPAP end to end and layer by layer on the
// machine at hand. One invocation runs one workload:
//
//	perfbench -workload perf_matrix|sweep_service|live_view -seed N -seconds S -trace 0|1
//
// Every workload repeats whole rounds of a fixed, seed-generated amount of
// work until S seconds of measured time have passed, checks every output
// against references built apart from the program, and prints each metric
// with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the metrics
// are the end-to-end figures; with -trace 1 the run records spans around
// its calls into each package and reports per-layer figures and the
// attribution tables instead. The exit code is non-zero when an output
// check fails. See README.md for the workloads, metrics and reference
// figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	_ "easypap/internal/kernels" // register the predefined kernels
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's figures by name.
type report struct {
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int
	// checkErr is the first output-check failure (nil when every output
	// matched its reference).
	checkErr error
	e2e      *report // untraced end-to-end figures (trace 0)
	layers   *report // per-layer figures and attribution rows (trace 1)
	tables   []string
}

// options are the command-line inputs shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	// scale shrinks every workload's sizes (1 = the benchmark; the
	// self-tests use a smaller value so a whole pass takes a second).
	scale int
}

var workloads = map[string]func(options) (*outcome, error){
	"perf_matrix":   runPerfMatrix,
	"sweep_service": runSweep,
	"live_view":     runLive,
}

func main() {
	var (
		workload = flag.String("workload", "", "perf_matrix, sweep_service or live_view")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build/run", "scratch directory for stores and span files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, workdir: *workdir, scale: 1}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		*workload, opts.seed, opts.seconds, opts.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := out.e2e
	kind, list := "end_to_end", endToEnd
	if opts.trace {
		rep, kind, list = out.layers, "per_layer", perLayer
		for _, t := range out.tables {
			fmt.Println(t)
		}
	}
	// Every declared metric appears on every workload; a per-layer figure
	// the workload never exercises reads 0 (see README.md).
	for _, d := range list {
		if _, ok := rep.metrics[d.name]; !ok {
			rep.set(d.name, d.unit, 0)
		}
	}
	fmt.Printf("%s metrics (%s):\n", kind, *workload)
	final := make(map[string]metric)
	for _, d := range list {
		m := rep.metrics[d.name]
		final[d.name] = m
		fmt.Printf("  %-44s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", out.attempted, out.failed)
	if out.checkErr != nil {
		fmt.Printf("OUTPUT CHECK FAILED: %v\n", out.checkErr)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.checkErr == nil, out.attempted, out.failed, final})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.checkErr != nil {
		os.Exit(3)
	}
}

// errCheck marks an output-check failure (as opposed to an error that
// stopped the run).
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// ---- statistics ----

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
