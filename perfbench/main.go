// Command perfbench is the repository benchmark. It runs one AdaFL
// workload — the in-process simulator (sim-cnn), the loopback sync wire
// server (wire-sync) or the async control plane (async-push) — checks
// the workload's outputs, and prints one JSON result as the last line of
// standard output.
//
//	go run . --workload sim-cnn --seed 1 --seconds 20 --trace 0
//
// The amount of work is fixed by --seconds (rounds or model versions at
// a calibrated rate), not by a wall-clock deadline, so the outputs a
// correctness check compares are a pure function of the seed and the
// size. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// workload untraced and then traced, and reports the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"adafl/internal/obs"
	"adafl/internal/tensor"
)

// A timed run builds its workload at least minSetups times and until
// setupBudget has passed (at most maxSetups); setup_s is the median and
// only the last build is run.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// chanceAcc is the accuracy of guessing on the 10-class task; a trained
// model must beat it by a wide margin.
const chanceAcc = 0.1

// localSteps and batchSize are every training client's local SGD work
// per update.
const (
	localSteps = 2
	batchSize  = 16
)

// params sizes one workload instance.
type params struct {
	seed    uint64
	seconds float64
	dir     string // checkpoint directory (created by the workload)
}

// tracing is the traced run's instrumentation; nil for untraced runs.
type tracing struct {
	tr     *tracer
	reg    *obs.Registry
	events *bytes.Buffer
	log    *obs.EventLog
}

func newTracing(run string) *tracing {
	buf := &bytes.Buffer{}
	return &tracing{tr: newTracer(run), reg: obs.NewRegistry(), events: buf, log: obs.NewEventLogWriter(buf)}
}

func (t *tracing) tracer() *tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tracing) eventLog() *obs.EventLog {
	if t == nil {
		return nil
	}
	return t.log
}

// checkpointEvents returns the (seconds, bytes) of every checkpoint event
// the engine logged.
func (t *tracing) checkpointEvents() (secs, sizes []float64, err error) {
	if err := t.log.Flush(); err != nil {
		return nil, nil, err
	}
	for _, line := range bytes.Split(t.events.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, nil, fmt.Errorf("event log: %w", err)
		}
		if e.Type == "checkpoint" {
			secs = append(secs, e.Seconds)
			sizes = append(sizes, float64(e.Bytes))
		}
	}
	return secs, sizes, nil
}

// instance is one built workload, ready to run once.
type instance interface {
	run() (*episode, error)
	discard()
}

// workload is one named benchmark input.
type workload struct {
	name  string
	setup func(p params, tc *tracing) (instance, error)
	// exact reports whether a traced run must reproduce the untraced
	// final accuracy and uplink bytes bit for bit; async-push folds in
	// arrival order, so only its counts are exact.
	exact bool
}

var workloads = []workload{
	{name: "sim-cnn", setup: setupSim, exact: true},
	{name: "wire-sync", setup: setupWire, exact: true},
	{name: "async-push", setup: setupAsync},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// episode is what one run of an instance measured and checked.
type episode struct {
	wall        float64   // seconds in the measured loop
	latencies   []float64 // seconds per operation: a round, or a pull
	opName      string    // "round" or "pull"
	updates     int       // client updates folded into the global
	ops         int       // rounds or accepted pushes: the allocs_per_op base
	attempted   int
	failed      int
	drained     int // async pushes that arrived after the budget closed
	uplinkBytes int64
	finalAcc    float64 // NaN when the workload does not evaluate
	samples     int     // training samples consumed (updates × steps × batch)
	mallocs     uint64
	problems    []string           // failed correctness checks
	layers      map[string]float64 // per-layer values (traced runs)
}

func (e *episode) check(ok bool, format string, args ...interface{}) {
	if !ok {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// runEpisode runs inst once, counting the heap allocations it makes.
func runEpisode(inst instance) (*episode, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	ep, err := inst.run()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	ep.mallocs = ms.Mallocs - before
	return ep, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timed builds the workload several times and runs the last build.
func timed(w workload, p params) (*result, map[string]interface{}, error) {
	var setups []float64
	var inst instance
	for begin := time.Now(); ; {
		q := p
		q.dir = filepath.Join(p.dir, fmt.Sprintf("setup%d", len(setups)))
		runtime.GC() // the previous build's garbage is not this build's cost
		start := time.Now()
		in, err := w.setup(q, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(setups) >= maxSetups || (len(setups) >= minSetups && time.Since(begin) >= setupBudget) {
			inst = in
			break
		}
		in.discard()
	}
	ep, err := runEpisode(inst)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p50 := median(ep.latencies)
	tailV, tailPct := tail(ep.latencies)
	res := &result{
		Correct:   len(ep.problems) == 0,
		Attempted: ep.attempted,
		Failed:    ep.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"updates_per_s":   {float64(ep.updates) / ep.wall, "1/s"},
			"latency_ms.p50":  {p50 * 1e3, "ms"},
			"latency_ms.tail": {tailV * 1e3, "ms"},
			"uplink_mb":       {float64(ep.uplinkBytes) / 1e6, "MB"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"allocs_per_op":   {float64(ep.mallocs) / float64(ep.ops), "count"},
		},
	}
	// The report restates the end-to-end figures under the names each
	// workload's users know them by: samples, rounds and accuracy for
	// the sync workloads, pushes and pulls for async-push.
	named := map[string]metric{
		"setup_s":       res.Metrics["setup_s"],
		"peak_rss_mb":   res.Metrics["peak_rss_mb"],
		"allocs_per_op": res.Metrics["allocs_per_op"],
		"uplink_mb":     res.Metrics["uplink_mb"],
		"failed_frac":   {frac(ep.failed, ep.attempted), "ratio"},
	}
	if ep.opName == "round" {
		named["samples_per_s"] = metric{float64(ep.samples) / ep.wall, "1/s"}
		named["round_s.p50"] = metric{p50, "s"}
		named["round_s.tail"] = metric{tailV, "s"}
		named["final_acc"] = metric{ep.finalAcc, "ratio"}
	} else {
		named["pushes_per_s"] = metric{float64(ep.updates) / ep.wall, "1/s"}
		named["pull_s.p50"] = metric{p50, "s"}
		named["pull_s.tail"] = metric{tailV, "s"}
	}
	report := map[string]interface{}{
		"workload":       w.name,
		"named":          named,
		"tail":           map[string]interface{}{"percentile": tailPct, "samples": len(ep.latencies), "of": ep.opName},
		"wall_s":         ep.wall,
		"updates":        ep.updates,
		"drained_pushes": ep.drained,
		"setup_runs":     len(setups),
		"problems":       ep.problems,
	}
	return res, report, nil
}

// perLayer lists every per-layer metric with its unit; a workload that
// does not reach a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"tensor.cpu_s", "s"}, {"nn.cpu_s", "s"},
	{"compress.encode_ms", "ms"}, {"compress.encode_busy_s", "s"},
	{"compress.encode_calls", "count"}, {"compress.cpu_s", "s"},
	{"core.plan_ms", "ms"}, {"core.cpu_s", "s"},
	{"fl.round_ms", "ms"}, {"fl.client_phase_ms", "ms"}, {"fl.aggregate_ms", "ms"},
	{"fl.eval_ms", "ms"}, {"fl.client_train_s", "s"}, {"fl.cpu_s", "s"},
	{"rpc.phase_score_s", "s"}, {"rpc.phase_update_s", "s"},
	{"rpc.bytes_up_mb", "MB"}, {"rpc.bytes_down_mb", "MB"},
	{"rpc.send_ms", "ms"}, {"rpc.recv_ms", "ms"}, {"rpc.cpu_s", "s"},
	{"checkpoint.write_ms", "ms"}, {"checkpoint.writes", "count"},
	{"checkpoint.written_frac", "ratio"}, {"checkpoint.cpu_s", "s"},
	{"shard.fold_s", "s"}, {"shard.cpu_s", "s"},
	{"session.pulls", "count"}, {"session.pushes", "count"},
	{"session.staleness_mean", "versions"}, {"session.cpu_s", "s"},
	{"runtime.cpu_s", "s"}, {"runtime.memmove_cpu_s", "s"},
	{"bench.unexplained_frac", "ratio"}, {"bench.trace_overhead_frac", "ratio"},
}

// profiledModules are the modules whose CPU charge is reported.
var profiledModules = []string{"tensor", "nn", "compress", "core", "fl", "rpc", "checkpoint", "shard", "session", "runtime"}

// traced runs the workload untraced, then traced with the same seed, and
// reports the per-layer metrics.
func traced(w workload, p params, spanPath string) (*result, map[string]interface{}, error) {
	q := p
	q.dir = filepath.Join(p.dir, "untraced")
	inst, err := w.setup(q, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	base, err := runEpisode(inst)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}

	tc := newTracing(runID(w.name, p.seed))
	q.dir = filepath.Join(p.dir, "traced")
	inst, err = w.setup(q, tc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	ep, err := runEpisode(inst)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	charge, err := attributeProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}

	problems := append(append([]string(nil), base.problems...), ep.problems...)
	if w.exact {
		if math.Float64bits(ep.finalAcc) != math.Float64bits(base.finalAcc) {
			problems = append(problems, fmt.Sprintf("traced final_acc %v differs from untraced %v", ep.finalAcc, base.finalAcc))
		}
		if ep.uplinkBytes != base.uplinkBytes {
			problems = append(problems, fmt.Sprintf("traced uplink %d B differs from untraced %d B", ep.uplinkBytes, base.uplinkBytes))
		}
	}
	if ep.ops != base.ops || ep.updates != base.updates {
		problems = append(problems, fmt.Sprintf("traced run did %d ops/%d updates, untraced %d/%d", ep.ops, ep.updates, base.ops, base.updates))
	}

	vals := map[string]float64{}
	for k, v := range ep.layers {
		vals[k] = v
	}
	for _, m := range profiledModules {
		vals[m+".cpu_s"] = charge.module[m]
	}
	vals["runtime.memmove_cpu_s"] = charge.memmove
	vals["bench.trace_overhead_frac"] = ep.wall/base.wall - 1

	res := &result{
		Correct:   len(problems) == 0,
		Attempted: base.attempted + ep.attempted,
		Failed:    base.failed + ep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	other := map[string]float64{}
	for m, s := range charge.module {
		if !contains(profiledModules, m) {
			other[m] = s
		}
	}
	if err := tc.tr.write(spanPath); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	report := map[string]interface{}{
		"workload":            w.name,
		"untraced_wall_s":     base.wall,
		"traced_wall_s":       ep.wall,
		"profile_cpu_s":       charge.total,
		"other_modules_cpu_s": other,
		"spans":               spanPath,
		"problems":            problems,
	}
	return res, report, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: the same seed builds the same inputs")
	seconds := flag.Float64("seconds", 20, "run length; sizes the fixed amount of work to about this many seconds")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: untraced+traced runs, per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for checkpoints and span files; each run's checkpoints are removed afterwards")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Load stays inside a 2-CPU budget whatever the machine: at most two
	// schedulable threads and two GEMM workers.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	tensor.SetMatMulWorkers(procs)

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fail(err)
	}
	env := readEnvironment(dir)
	p := params{seed: *seed, seconds: *seconds, dir: dir}
	var res *result
	var report map[string]interface{}
	if *trace == 1 {
		spanPath := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		res, report, err = traced(w, p, spanPath)
	} else {
		res, report, err = timed(w, p)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	printJSON("env", env)
	printJSON("report", report)
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", w.name, report["problems"])
		os.Exit(1)
	}
}

func printJSON(label string, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s %s\n", label, b)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
