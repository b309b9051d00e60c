// Command perfbench is the repository's benchmark. It runs one workload
// against the product (exaclim and the public functions of the internal
// layers) for a fixed time, checks the workload's outputs, and prints every
// metric by name and unit as one JSON object on its last line:
//
//	bash perfbench/run.sh --workload train-summit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around every layer call it makes and prints the
// per-layer metrics instead. The workloads, metrics and the reasons for
// them are in BENCHMARK.json and perfbench/NOTES.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/tensor"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses did
// no work on it and reads 0 there (see NOTES.md for which moves what).
var perLayer = []metricDef{
	{"climate.next_ms", "ms"},
	{"graph.forward_ms", "ms"},
	{"graph.backward_ms", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemm_gflop_per_op", "GFLOP"},
	{"tensor.pool_allocs_per_step", "count"},
	{"horovod.exposed_ms", "ms"},
	{"horovod.overlap_frac", "ratio"},
	{"horovod.buckets_per_step", "count"},
	{"horovod.ctl_msgs_per_step", "count"},
	{"mpi.wire_kb_per_step", "KB"},
	{"opt.update_ms", "ms"},
	{"hpfloat.skip_frac", "ratio"},
	{"hpfloat.skipped_steps", "count"},
	{"core.steps", "count"},
	{"core.self_ms", "ms"},
	{"models.ckpt_stall_ms", "ms"},
	{"models.snapshot_mb", "MB"},
	{"fleet.tiles_per_req", "count"},
	{"fleet.requests", "count"},
	{"fleet.redispatch_frac", "ratio"},
	{"fleet.redispatched_tiles", "count"},
	{"infer.decode_ms_per_tile", "ms"},
	{"infer.exit_ms_per_tile", "ms"},
	{"infer.pool_live_mb_per_req", "MB"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.mean_batch", "count"},
	{"serve.batches", "count"},
	{"serve.exit_rate", "ratio"},
	{"serve.exited_tiles", "count"},
	{"serve.checked_tiles", "count"},
	{"serve.decode_batch_ms", "ms"},
	{"serve.exit_batch_ms", "ms"},
	{"stream.late_ms", "ms"},
	{"stream.queue_peak", "count"},
	{"storms.update_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.ops", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string // scratch space inside the checkout
}

// window is the measured part of a run.
func (rc runConfig) window() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// warmup is the time each workload runs before its measured window, so
// plans, pools and caches are built before anything is timed.
const warmup = time.Second

// traceBlock is the length of the alternating traced and untraced blocks of
// a traced run; tracing overhead is the traced blocks' median latency minus
// the untraced blocks'.
const traceBlock = time.Second

// tracedAt reports whether a unit started at offset t into a traced run's
// measured window falls into a traced block.
func tracedAt(t time.Duration) bool { return t >= 0 && int(t/traceBlock)%2 == 1 }

// check is one output check of a workload.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	checks            []check
	values            map[string]float64 // end-to-end and per-layer
	notes             []string           // human-readable lines (digests, counts)
	spans             []span
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"train-summit":  runTrainSummit,
	"archive-dense": runArchiveDense,
	"stream-sparse": runStreamSparse,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: train-summit, archive-dense or stream-sparse")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for checkpoints and traces")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}

	host := stampHost(*seed)
	hb, _ := json.Marshal(host) // strings and ints only: cannot fail
	fmt.Printf("host %s\n", hb)

	stealBefore := readSteal()
	out, err := wl(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if steal, total := readSteal().sub(stealBefore); total > 0 {
		fmt.Printf("host: the hypervisor stole %.1f%% of this machine's CPU time during the run\n", 100*steal/total)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	correct := true
	for _, c := range out.checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAILED", false
		}
		fmt.Printf("check %-28s %s  %s\n", c.name, status, c.detail)
	}
	if rc.trace {
		path, err := writeTrace(filepath.Join(rc.workdir, "traces"), *name, *seed, host, out.spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace %d spans written to %s\n", len(out.spans), path)
	}

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !rc.trace {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// hostStamp identifies the machine and settings a result was taken on;
// results with different stamps are not comparable.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ISA        string `json:"kernel_isa"`
	NoSIMD     string `json:"EXACLIM_NOSIMD"`
	NoPin      string `json:"EXACLIM_NOPIN"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
}

func stampHost(seed int64) hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ISA:        tensor.ActiveISA().String(),
		NoSIMD:     os.Getenv("EXACLIM_NOSIMD"),
		NoPin:      os.Getenv("EXACLIM_NOPIN"),
		Go:         runtime.Version(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes is the machine-wide steal and total CPU time from /proc/stat,
// in clock ticks; zero where the file is unreadable.
type cpuTimes struct{ steal, total float64 }

func readSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // guest time is already counted in user and nice
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) sub(o cpuTimes) (steal, total float64) {
	return t.steal - o.steal, t.total - o.total
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime's GC CPU and allocation
// counters; two readings bracket a measured window.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// runtimeLayer records the runtime per-layer metrics of a window that
// completed ops units of work.
func (o *outcome) runtimeLayer(before, after runtimeSample, ops int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.values["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if ops > 0 {
		o.values["runtime.alloc_mb_per_op"] = (after.allocBytes - before.allocBytes) / float64(ops) / (1 << 20)
	}
	o.values["runtime.ops"] = float64(ops)
}

// latencyMetrics records p50_ms and p95_ms over the measured latencies,
// noting when the run was too short for p95 to have minBeyond samples
// above it.
func (o *outcome) latencyMetrics(lat []float64) {
	o.values["p50_ms"] = median(lat)
	p95, ok := percentile(lat, 0.95)
	o.values["p95_ms"] = p95
	o.note("latency over %d samples: p50 %.3f ms (IQR %.1f%% of it), p95 %.3f ms",
		len(lat), median(lat), 100*relIQR(lat), p95)
	if !ok {
		o.note("warning: fewer than %d samples above p95; lengthen --seconds", minBeyond)
	}
}

// traceOverhead records the traced blocks' median latency minus the
// untraced blocks'.
func (o *outcome) traceOverhead(traced, untraced []float64) {
	if len(traced) > 0 && len(untraced) > 0 {
		o.values["trace.overhead_ms"] = median(traced) - median(untraced)
	}
	o.values["trace.spans"] = float64(len(o.spans))
}

// medianSetup runs setup n times and returns the value of the last
// repetition with the median wall time in seconds; the values of the
// earlier repetitions are released with discard.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			discard(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}
