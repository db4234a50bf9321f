// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (explore, verify or serve; see README.md) closed loop in this
// process, checks every answer outside the timed region, and prints one
// JSON result line last on standard output:
//
//	go run . --workload explore --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of one pass.
// With --trace 1 it carries the per-layer metrics of a traced pass, run
// after an untraced pass of the same inputs that gives the tracing
// overhead. A report line before the result records the machine shape,
// input sizes, worker counts, tails with their sample counts and the
// work fingerprint.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how often a run performs the workload's set-up; setup_s
// is the median.
const setupRepeats = 21

// Latency roles. Every workload has three op kinds, mapped onto these
// roles so that all workloads report the same end-to-end metric names
// (README.md gives the mapping).
const (
	primary   = "primary"
	secondary = "secondary"
	tertiary  = "tertiary"
)

var roles = []string{primary, secondary, tertiary}

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	// workers is the worker count handed to the program's parallel
	// calls (oracle.Check, exhaustive.Explore); never more than nproc.
	workers int
	// tamper, when set, corrupts the expected answer of the ops it
	// returns true for, so tests can show a wrong answer is counted as
	// a failed op.
	tamper func(op int) bool
}

// tamperFn reports whether the expected answer of op is to be corrupted.
func (c config) tamperFn(op int) bool { return c.tamper != nil && c.tamper(op) }

// errNotRun marks an op skipped because an op it depends on failed.
var errNotRun = errors.New("not run: an earlier op of its group failed")

// fail marks op as failed with err, keeping the first error.
func fail(recs []opRecord, op int, err error) {
	if !recs[op].failed {
		recs[op].failed, recs[op].err = true, err
	}
}

// opRecord is one timed op. Each op is written by one goroutine only.
type opRecord struct {
	role   string
	dur    time.Duration
	failed bool
	err    error
}

// bench is one workload, a traffic mix over the program's public calls.
type bench interface {
	// kinds names the op kind behind each role.
	kinds() map[string]string
	// ops is the number of timed ops per pass.
	ops() int
	// setup performs the program's own set-up. The harness times it and
	// calls it setupRepeats times; the last set-up serves the pass.
	setup() error
	// run executes every op once, closed loop, filling recs.
	run(tr *tracer, recs []opRecord) error
	// check compares every answer with its expected value, outside the
	// timed region, marking failed ops. tr may record reference spans.
	check(tr *tracer, recs []opRecord)
	// probe calls single layers on the pass's inputs (traced pass only)
	// for layers the timed ops reach only from inside the program.
	probe(tr *tracer) error
	// counters returns the pass's deterministic work counts and the
	// per-layer counters and ratios.
	counters() (fingerprint map[string]int64, layer map[string]float64)
	// teardown releases the pass's resources.
	teardown()
	// shape describes the inputs and worker counts for the report.
	shape() map[string]any
}

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "explore":
		return newExplore(cfg)
	case "verify":
		return newVerify(cfg)
	case "serve":
		return newServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want explore, verify or serve)", cfg.workload)
}

// passResult is the outcome of one pass over a workload's op list.
type passResult struct {
	setup       []time.Duration
	elapsed     time.Duration
	stealFrac   float64 // share of host CPU time stolen by other guests during the timed phase
	recs        []opRecord
	fingerprint map[string]int64
	layer       map[string]float64
	spans       []span
}

func (p *passResult) failed() int {
	n := 0
	for _, r := range p.recs {
		if r.failed {
			n++
		}
	}
	return n
}

func (p *passResult) throughput() float64 {
	return float64(len(p.recs)) / p.elapsed.Seconds()
}

// setupsBefore of the setupRepeats set-ups run before the timed phase,
// the rest after it, so that setup_s samples the host at both ends of
// the run rather than during one fraction of a second.
const setupsBefore = setupRepeats/2 + 1

// timeSetups performs n set-ups, each but the last torn down, and
// appends their durations to res.setup.
func timeSetups(w bench, res *passResult, n int) error {
	for i := 0; i < n; i++ {
		if i > 0 {
			w.teardown()
		}
		// Every set-up starts from a collected heap, so none pays for
		// garbage left by input generation or an earlier set-up.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	return nil
}

// runPass performs the set-ups, the timed ops, the checks and, when
// traced, the probes.
func runPass(w bench, tr *tracer) (*passResult, error) {
	res := &passResult{}
	defer w.teardown()
	if err := timeSetups(w, res, setupsBefore); err != nil {
		return nil, err
	}
	res.recs = make([]opRecord, w.ops())
	// Likewise the timed phase, and the checks after it.
	runtime.GC()
	steal0 := readCPUStat()
	t0 := time.Now()
	if err := w.run(tr, res.recs); err != nil {
		return nil, err
	}
	res.elapsed = time.Since(t0)
	res.stealFrac = readCPUStat().stealSince(steal0)
	runtime.GC()
	w.check(tr, res.recs)
	if tr != nil {
		if err := w.probe(tr); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		res.spans = tr.snapshot()
	}
	res.fingerprint, res.layer = w.counters()
	w.teardown()
	if err := timeSetups(w, res, setupRepeats-setupsBefore); err != nil {
		return nil, err
	}
	return res, nil
}

// timeOp runs fn as op number op in role, inside a root span, and
// records it in recs.
func timeOp(tr *tracer, recs []opRecord, op int, role string, fn func(root int64) error) error {
	root := tr.start("op."+role, 0, int64(op))
	t0 := time.Now()
	err := fn(root)
	d := time.Since(t0)
	tr.end(root)
	recs[op] = opRecord{role: role, dur: d, err: err, failed: err != nil}
	return err
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	var outDir string
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore, verify or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are derived from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured length of one pass; sets the fixed op count")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&outDir, "out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.workers = runtime.NumCPU()
	if err := run(cfg, traceFlag == 1, outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, traced bool, outDir string) error {
	w, err := newBench(cfg)
	if err != nil {
		return err
	}
	// A traced run follows its untraced pass with a traced one. Each
	// pass warms up in its own set-ups, and one pass per mode keeps a
	// traced run of the longest workload well inside three minutes.
	tracers := []*tracer{nil}
	if traced {
		tracers = append(tracers, newTracer())
	}
	var passes []*passResult
	for _, tr := range tracers {
		p, err := runPass(w, tr)
		if err != nil {
			return err
		}
		if len(passes) > 0 && !maps.Equal(passes[0].fingerprint, p.fingerprint) {
			return fmt.Errorf("passes did different work: %v vs %v", p.fingerprint, passes[0].fingerprint)
		}
		passes = append(passes, p)
	}
	plain := passes[0]
	report := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       traced,
		"machine":     machineShape(),
		"inputs":      w.shape(),
		"kinds":       w.kinds(),
		"fingerprint": plain.fingerprint,
		"setup_s":     durSeconds(plain.setup),
		"steal_frac":  plain.stealFrac,
	}
	res := result{Metrics: map[string]metric{}}
	if traced {
		path, err := writeSpans(outDir, cfg, passes[1].spans)
		if err != nil {
			return err
		}
		report["spans_file"] = path
		res.Metrics = layerMetrics(passes[1], passes[0], cfg.workload)
	} else {
		tails := map[string]tail{}
		res.Metrics = endToEnd(plain, tails)
		report["tails"] = tails
	}
	var recs [][]opRecord
	for _, p := range passes {
		res.Attempted += len(p.recs)
		res.Failed += p.failed()
		recs = append(recs, p.recs)
	}
	res.Correct = res.Failed == 0
	report["errors"] = firstErrors(recs...)
	for _, v := range []any{map[string]any{"report": report}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(p *passResult, tails map[string]tail) map[string]metric {
	m := map[string]metric{
		"setup_s":          {median(durSeconds(p.setup)), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"throughput_per_s": {p.throughput(), "1/s"},
	}
	byRole := map[string][]float64{}
	for _, r := range p.recs {
		byRole[r.role] = append(byRole[r.role], float64(r.dur.Nanoseconds())/1e6)
	}
	for _, role := range roles {
		s := byRole[role]
		t, _ := tailOf(s)
		tails[role] = t
		m[role+"_p50_ms"] = metric{median(s), "ms"}
		m[role+"_tail_ms"] = metric{t.Value, "ms"}
	}
	return m
}

// spanMetrics lists the spans whose calls, busy and self time the
// traced run reports, in report order.
var spanMetrics = []string{
	"traffic.system", "core.sets", "core.xlwx", "core.ibn", "core.whatif_apply", "core.whatif_analyze",
	"sim.run", "sim.search", "sim.replay", "sim.reference", "exhaustive.explore", "oracle.check",
	"canon.key", "serve.decode", "serve.handler", "http.transport",
}

// counterMetrics are the per-layer counters and ratios each workload
// fills in (zero where the workload leaves the layer idle), with units.
var counterMetrics = map[string]string{
	"core.iterations":         "count",
	"core.memo_hit_ratio":     "ratio",
	"core.reanalyzed_frac":    "ratio",
	"core.warm_accept_ratio":  "ratio",
	"sim.cycles_per_s":        "1/s",
	"sim.fastpath_frac":       "ratio",
	"exhaustive.states":       "count",
	"exhaustive.states_saved": "count",
	"oracle.sim_runs":         "count",
	"serve.cache_hit_ratio":   "ratio",
}

// layerMetrics derives the per-layer metrics of a traced pass; the
// untraced pass gives the tracing overhead.
func layerMetrics(traced, untraced *passResult, name string) map[string]metric {
	sum := summarize(traced.spans)
	m := map[string]metric{}
	for _, sp := range spanMetrics {
		ls := sum[sp]
		if ls == nil {
			ls = &layerStats{}
		}
		m[sp+".calls"] = metric{float64(ls.Calls), "count"}
		m[sp+".busy_ms"] = metric{float64(ls.BusyNs) / 1e6, "ms"}
		m[sp+".self_ms"] = metric{float64(ls.SelfNs) / 1e6, "ms"}
		m[sp+"_ms"] = metric{median(ls.durs), "ms"}
	}
	m["core.ibn_over_xlwx"] = metric{ratio(m["core.ibn_ms"].Value, m["core.xlwx_ms"].Value), "ratio"}
	for c, unit := range counterMetrics {
		m[c] = metric{traced.layer[c], unit}
	}
	// serve.handler_ms and serve.transport_ms split a cache hit
	// (tertiary on serve) into handler time and the client-observed
	// round trip outside it.
	var handler, transport []float64
	self := selfTimes(traced.spans)
	byID := map[int64]span{}
	for _, s := range traced.spans {
		byID[s.ID] = s
	}
	for _, s := range traced.spans {
		root := byID[rootOf(byID, s)].Name
		if root == "op."+tertiary && s.Name == "serve.handler" {
			handler = append(handler, float64(s.End-s.Start)/1e6)
		}
		if root == "op."+tertiary && s.Name == "http.transport" {
			transport = append(transport, float64(self[s.ID])/1e6)
		}
	}
	m["serve.handler_ms"] = metric{median(handler), "ms"}
	m["serve.transport_ms"] = metric{median(transport), "ms"}
	m["trace.loaded_frac"] = metric{loadedFrac(byID, name), "ratio"}
	m["trace.overhead_frac"] = metric{1 - traced.throughput()/untraced.throughput(), "ratio"}
	m["trace.spans"] = metric{float64(len(traced.spans)), "count"}
	return m
}

// rootOf returns the id of s's root span.
func rootOf(byID map[int64]span, s span) int64 {
	for s.Parent != 0 {
		s = byID[s.Parent]
	}
	return s.ID
}

// loadedShare says how each workload's loaded share is measured: the
// busy time of the listed spans, under op roots or under the probes that
// repeat the ops' inner calls, against the ops' traced time. With
// complement set, the spans are the work outside the loaded layers and
// the share is one minus theirs.
var loadedShare = map[string]struct {
	spans      []string
	complement bool
}{
	// The ops call traffic and core directly; only the harness's own
	// glue is left out.
	"explore": {spans: []string{"traffic.system", "core.sets", "core.xlwx", "core.ibn",
		"core.whatif_apply", "core.whatif_analyze"}},
	// The simulations, and the searches, replays and explorations that
	// the probes repeat from inside oracle.Check. The oracle's own
	// logic and the core analyses it runs are not credited.
	"verify": {spans: []string{"sim.run", "sim.search", "sim.replay", "exhaustive.explore"}},
	// Everything but the system materialisation and analyses that the
	// handler runs on misses and what-ifs, which the probes repeat.
	"serve": {spans: []string{"traffic.system", "core.sets", "core.ibn",
		"core.whatif_apply", "core.whatif_analyze"}, complement: true},
}

// loadedFrac is the share of the ops' traced time spent in the layers
// workload is said to load (see loadedShare). Spans under the checks'
// roots do not count.
func loadedFrac(byID map[int64]span, workload string) float64 {
	want := map[string]bool{}
	for _, n := range loadedShare[workload].spans {
		want[n] = true
	}
	var opNs, spanNs int64
	for _, s := range byID {
		root := byID[rootOf(byID, s)].Name
		switch {
		case s.Parent == 0 && module(s.Name) == "op":
			opNs += s.End - s.Start
		case want[s.Name] && (module(root) == "op" || root == "probe"):
			spanNs += s.End - s.Start
		}
	}
	f := ratio(float64(spanNs), float64(opNs))
	if loadedShare[workload].complement && opNs > 0 {
		f = 1 - f
	}
	return f
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func firstErrors(passes ...[]opRecord) []string {
	var out []string
	for _, recs := range passes {
		for i, r := range recs {
			if r.failed && len(out) < 5 {
				out = append(out, fmt.Sprintf("op %d (%s): %v", i, r.role, r.err))
			}
		}
	}
	return out
}

func writeSpans(dir string, cfg config, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// machineShape records what the numbers were measured on.
func machineShape() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat holds the all-CPU jiffy counters of /proc/stat.
type cpuStat struct{ steal, total int64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealSince is the share of CPU time stolen since prev.
func (c cpuStat) stealSince(prev cpuStat) float64 {
	return ratio(float64(c.steal-prev.steal), float64(c.total-prev.total))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
