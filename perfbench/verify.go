package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"wormnoc/internal/core"
	"wormnoc/internal/exhaustive"
	"wormnoc/internal/noc"
	"wormnoc/internal/oracle"
	"wormnoc/internal/parallel"
	"wormnoc/internal/sim"
	"wormnoc/internal/traffic"
)

// verifyRoundsPerSecond sizes the verify op list: rounds (one fuzz
// check, one proof check, one simulation) per second of --seconds on a
// 2-core reference box.
const verifyRoundsPerSecond = 40

// A proof scenario's exploration enumerates at most proofBudget states
// over a horizon no longer than proofHorizon, the check's own attack
// horizon, and simulates at most proofCycles cycles (states × horizon).
// All sit below `nocfuzz exhaust`'s defaults so that no single proof
// dominates a run.
const (
	proofBudget             = 1 << 12
	proofHorizon noc.Cycles = 2_000
	proofCycles  int64      = 500_000
)

// simDuration is the horizon of a simulate op, the oracle's default.
const simDuration noc.Cycles = 12_000

// proofGen draws tiny scenarios like `nocfuzz exhaust`: at most 4 nodes
// and 4 flows, short periods, no jitter. proofCase keeps the ones the
// exhaustive backend accepts, which are tie-free.
var proofGen = oracle.GenConfig{
	MaxDim: 2, MaxFlows: 4, MaxBuf: 4, MaxLinkLatency: 1, MaxRouteLatency: -1,
	PeriodMin: 6, PeriodMax: 18, LenMin: 2, LenMax: 6, JitterProb: -1,
}

// verifyCase is one scenario with the configuration it is checked under.
type verifyCase struct {
	sc  *oracle.Scenario
	sys *traffic.System
	cc  oracle.CheckConfig
	// work is a proof scenario's simulated cycles in exploration:
	// reduced states × horizon.
	work int64
}

// verify is the oracle campaign: default fuzz scenarios checked against
// the simulator's phasing search, tiny scenarios proven by the
// exhaustive backend, and plain simulations held to the reference
// engine.
type verify struct {
	cfg                  config
	checks, proofs       []verifyCase
	warmCheck, warmProof verifyCase
	// Per-pass answers.
	reports []*oracle.Report // indexed by op
	simRes  []*sim.Result    // indexed by op
	simNs   int64
}

func newVerify(cfg config) (*verify, error) {
	v := &verify{cfg: cfg}
	// Warm-up scenarios do not depend on the seed, so every run's
	// set-up does the same work.
	warm := rand.New(rand.NewSource(0))
	var err error
	if v.warmCheck, err = drawCase(warm, 5, cfg.workers, fuzzCase); err != nil {
		return nil, err
	}
	if v.warmProof, err = drawCase(warm, 3, cfg.workers, proofCase); err != nil {
		return nil, err
	}
	// Flow counts cycle through each generator's range, so runs at
	// different seeds hold the same mix of scenario sizes.
	rounds := verifyRoundsPerSecond * cfg.seconds
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < rounds; i++ {
		c, err := drawCase(rng, 2+i%(fuzzMaxFlows-1), cfg.workers, fuzzCase)
		if err != nil {
			return nil, err
		}
		v.checks = append(v.checks, c)
	}
	edges, err := proofEdges(cfg.workers)
	if err != nil {
		return nil, err
	}
	// A proof's work is heavy-tailed: its simulated cycles span three
	// orders of magnitude at one flow count. So each flow count's slots
	// take their scenarios evenly from proofStrata strata of that work,
	// and every seed gets the same mix of light and heavy proofs.
	v.proofs = make([]verifyCase, rounds)
	for n := 2; n <= proofGen.MaxFlows; n++ {
		want := make([][]int, proofStrata) // slots per stratum
		left := 0
		for i := 0; i < rounds; i++ {
			if 2+i%(proofGen.MaxFlows-1) == n {
				want[left%proofStrata] = append(want[left%proofStrata], i)
				left++
			}
		}
		for left > 0 {
			c, err := drawCase(rng, n, cfg.workers, proofCase)
			if err != nil {
				return nil, err
			}
			st := sort.Search(len(edges[n]), func(k int) bool { return edges[n][k] > c.work })
			if slots := want[st]; len(slots) > 0 {
				v.proofs[slots[0]], want[st] = c, slots[1:]
				left--
			}
		}
	}
	return v, nil
}

// Proof scenarios are drawn from proofStrata equally likely strata of
// their work. proofEdgeDraws scenarios per flow count, drawn at a fixed
// seed, estimate the strata's edges.
const (
	proofStrata    = 10
	proofEdgeDraws = 300
)

// proofEdges returns, per flow count, the work (reduced states × horizon)
// at the edges between the proof strata.
func proofEdges(workers int) (map[int][]int64, error) {
	rng := rand.New(rand.NewSource(1))
	edges := map[int][]int64{}
	for n := 2; n <= proofGen.MaxFlows; n++ {
		work := make([]int64, proofEdgeDraws)
		for i := range work {
			c, err := drawCase(rng, n, workers, proofCase)
			if err != nil {
				return nil, err
			}
			work[i] = c.work
		}
		sort.Slice(work, func(a, b int) bool { return work[a] < work[b] })
		for st := 1; st < proofStrata; st++ {
			edges[n] = append(edges[n], work[st*len(work)/proofStrata])
		}
	}
	return edges, nil
}

// fuzzMaxFlows is the default GenConfig's flow-count bound.
const fuzzMaxFlows = 8

// drawCase draws scenarios from seeds of rng until mk accepts one with n
// flows.
func drawCase(rng *rand.Rand, n, workers int, mk func(seed int64, workers int) (verifyCase, bool, error)) (verifyCase, error) {
	for tries := 0; tries < 100_000; tries++ {
		c, ok, err := mk(rng.Int63(), workers)
		if err != nil {
			return c, err
		}
		if ok && c.sys.NumFlows() == n {
			return c, nil
		}
	}
	return verifyCase{}, fmt.Errorf("no acceptable scenario with %d flows", n)
}

// checkConfig is the oracle configuration of every check. It spells
// out the phasing-search knobs at the oracle's defaults, so that the
// probe repeats the very search the check pays for, and the work stays
// fixed if those defaults change.
func checkConfig(seed int64, workers int, duration noc.Cycles) oracle.CheckConfig {
	return oracle.CheckConfig{
		Seed: seed, Workers: workers, Duration: duration,
		Restarts: 2, RefineSteps: 1, ProbesPerFlow: 4,
	}
}

func fuzzCase(seed int64, workers int) (verifyCase, bool, error) {
	sc := oracle.Generate(seed, oracle.GenConfig{})
	sys, err := sc.System()
	if err != nil {
		return verifyCase{}, false, err
	}
	return verifyCase{sc: sc, sys: sys, cc: checkConfig(seed, workers, simDuration)}, true, nil
}

// proofCase draws a tiny scenario; ok is false when it falls outside
// the exhaustive backend's documented domain (structure or budget), in
// which case the oracle would skip the proof with a note, or outside
// the domain where every flow can be proven.
func proofCase(seed int64, workers int) (c verifyCase, ok bool, err error) {
	sc := oracle.Generate(seed, proofGen)
	sys, err := sc.System()
	if err != nil {
		return c, false, err
	}
	sp, err := exhaustive.Plan(sys)
	states := sp.SizeUnder(exhaustive.ReduceAll)
	if err != nil || states > proofBudget || sp.SuggestedDuration > proofHorizon ||
		states*int64(sp.SuggestedDuration) > proofCycles {
		return c, false, nil
	}
	// Proofs presume that the interferers meet their deadlines (see
	// exhaustive.Result.Proven), so proof scenarios are the ones XLWX
	// declares schedulable.
	res, err := core.NewEngine(sys).Analyze(optXLWX)
	if err != nil {
		return c, false, err
	}
	if !res.Schedulable {
		return c, false, nil
	}
	cc := checkConfig(seed, workers, proofHorizon)
	cc.ExhaustiveStates = proofBudget
	return verifyCase{sc: sc, sys: sys, cc: cc, work: states * int64(sp.SuggestedDuration)}, true, nil
}

func (v *verify) kinds() map[string]string {
	return map[string]string{
		primary:   "check: oracle.Check of a default fuzz scenario (oracle.Generate, default GenConfig)",
		secondary: "proof: oracle.Check with ExhaustiveStates armed on a tiny tie-free scenario",
		tertiary:  "simulate: sim.Run of a fuzz scenario's system for 12000 cycles at zero offsets",
	}
}

const verifyOpsPerRound = 3

func (v *verify) ops() int { return verifyOpsPerRound * len(v.checks) }

// setup checks one warm-up scenario of each kind, so the engines and
// pools the program builds lazily exist before timing.
func (v *verify) setup() error {
	if _, err := oracle.Check(v.warmCheck.sc, v.warmCheck.cc); err != nil {
		return err
	}
	if _, err := oracle.Check(v.warmProof.sc, v.warmProof.cc); err != nil {
		return err
	}
	_, err := sim.Run(v.warmCheck.sys, sim.Config{Duration: simDuration})
	return err
}

func (v *verify) run(tr *tracer, recs []opRecord) error {
	v.reports = make([]*oracle.Report, len(recs))
	v.simRes = make([]*sim.Result, len(recs))
	v.simNs = 0
	for i := range v.checks {
		base := i * verifyOpsPerRound
		check := func(op int, role string, c verifyCase) {
			_ = timeOp(tr, recs, op, role, func(root int64) error {
				var err error
				tr.do(root, "oracle.check", func() { v.reports[op], err = oracle.Check(c.sc, c.cc) })
				return err
			})
		}
		check(base, primary, v.checks[i])
		check(base+1, secondary, v.proofs[i])
		_ = timeOp(tr, recs, base+2, tertiary, func(root int64) error {
			var err error
			tr.do(root, "sim.run", func() { v.simRes[base+2], err = sim.Run(v.checks[i].sys, sim.Config{Duration: simDuration}) })
			return err
		})
		v.simNs += recs[base+2].dur.Nanoseconds()
	}
	return nil
}

// check requires zero violations everywhere, a complete exhaustive
// exploration with every reported flow proven on proof scenarios, and
// simulations identical to the reference engine's replay.
func (v *verify) check(tr *tracer, recs []opRecord) {
	for i := range v.checks {
		base := i * verifyOpsPerRound
		for _, op := range []int{base, base + 1} {
			if recs[op].failed {
				continue
			}
			rep := v.expected(op)
			if len(rep.Violations) > 0 {
				fail(recs, op, fmt.Errorf("%d violation(s): %v", len(rep.Violations), rep.Violations))
			} else if op == base+1 {
				if err := proven(rep.Exhaustive); err != nil {
					fail(recs, op, err)
				}
			}
		}
		op := base + 2
		if recs[op].failed {
			continue
		}
		var want *sim.Result
		var err error
		root := tr.start("check.simulate", 0, int64(op))
		tr.do(root, "sim.reference", func() { want, err = sim.RunReference(v.checks[i].sys, sim.Config{Duration: simDuration}) })
		tr.end(root)
		if err == nil {
			err = sameSim(v.simRes[op], want, v.cfg.tamperFn(op))
		}
		if err != nil {
			fail(recs, op, err)
		}
	}
}

// expected returns the report of check op as the checks read it. With
// tampering on, it is a copy that a wrong answer would give: a fuzz
// check reports a violation, and a proof leaves its first flow
// unproven.
func (v *verify) expected(op int) *oracle.Report {
	rep := v.reports[op]
	if !v.cfg.tamperFn(op) {
		return rep
	}
	bad := *rep
	if op%verifyOpsPerRound == 0 || rep.Exhaustive == nil || len(rep.Exhaustive.Gaps) == 0 {
		bad.Violations = append(append([]oracle.Violation(nil), rep.Violations...),
			oracle.Violation{Class: oracle.Unsound, Invariant: "sim<=IBN", Method: core.IBN})
		return &bad
	}
	ex := *rep.Exhaustive
	ex.Gaps = append([]oracle.ExhaustiveGap(nil), ex.Gaps...)
	ex.Gaps[0].Proven = false
	bad.Exhaustive = &ex
	return &bad
}

// proven requires a complete exploration that proves every flow it
// reports on.
func proven(ex *oracle.ExhaustiveReport) error {
	if ex == nil {
		return fmt.Errorf("exhaustive backend did not run")
	}
	if !ex.Complete {
		return fmt.Errorf("exhaustive exploration incomplete: %s", ex.Truncation)
	}
	if len(ex.Gaps) == 0 {
		return fmt.Errorf("no flow was proven")
	}
	for _, g := range ex.Gaps {
		if !g.Proven {
			return fmt.Errorf("flow %d not proven", g.Flow)
		}
	}
	return nil
}

// sameSim compares every observable of two simulations (engine Stats
// excepted). tamper perturbs the expected side.
func sameSim(got, want *sim.Result, tamper bool) error {
	w := *want
	w.Stats = got.Stats
	if tamper {
		w.InFlight++
	}
	if !reflect.DeepEqual(*got, w) {
		return fmt.Errorf("simulation diverges from the reference engine")
	}
	return nil
}

// probe repeats, on the same inputs, the sim and exhaustive work that
// oracle.Check does inside each check: the phasing search of every
// flow some analysis bounds, fanned out on the check's workers; the
// replay of each worst phasing through the reference, a fresh and a
// reused engine; and on proof scenarios the exploration and the
// in-class comparison searches. It mirrors check.go and exhaustive.go
// in the oracle package.
func (v *verify) probe(tr *tracer) error {
	for i := range v.checks {
		for k, c := range []verifyCase{v.checks[i], v.proofs[i]} {
			root := tr.start("probe", 0, int64(i*verifyOpsPerRound+k))
			err := probeCheck(tr, root, c)
			tr.end(root)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func probeCheck(tr *tracer, root int64, c verifyCase) error {
	sys, cc := c.sys, c.cc
	methods := core.Methods()
	eng := core.NewEngine(sys)
	results := map[core.Method]*core.Result{}
	for _, m := range methods {
		res, err := eng.Analyze(core.Options{Method: m})
		if err != nil {
			return err
		}
		results[m] = res
	}
	schedulable := func(i int, ms []core.Method) bool {
		for _, m := range ms {
			if results[m].Flows[i].Status == core.Schedulable {
				return true
			}
		}
		return false
	}
	anyJitter := false
	for i := 0; i < sys.NumFlows(); i++ {
		anyJitter = anyJitter || sys.Flow(i).Jitter > 0
	}
	var err error
	if c.sc.Doc.Mesh.BufDepth >= oracle.MinBufDepth {
		offsets := make([][]noc.Cycles, sys.NumFlows())
		tr.do(root, "sim.search", func() {
			runner := &parallel.Runner{Workers: cc.Workers}
			err = runner.Run(sys.NumFlows(), func(t int) error {
				if !schedulable(t, methods) {
					return nil
				}
				res, err := sim.SearchWorstCase(sys, sim.SearchConfig{
					Base: sim.Config{Duration: cc.Duration, InjectJitter: anyJitter,
						JitterSeed: oracle.DeriveSeed(cc.Seed, int64(t)*2+1)},
					Target: t, Restarts: cc.Restarts, RefineSteps: cc.RefineSteps,
					ProbesPerFlow: cc.ProbesPerFlow, Workers: 1,
					Rand: rand.New(rand.NewSource(oracle.DeriveSeed(cc.Seed, int64(t)*2))),
				})
				if err == nil {
					offsets[t] = res.Offsets
				}
				return err
			})
		})
		if err != nil {
			return err
		}
		tr.do(root, "sim.replay", func() {
			reused := sim.NewEngine(sys)
			for t, off := range offsets {
				if !schedulable(t, methods) || err != nil {
					continue
				}
				rc := sim.Config{Duration: cc.Duration, Offsets: off, InjectJitter: anyJitter,
					JitterSeed: oracle.DeriveSeed(cc.Seed, int64(t)*2+1)}
				if _, err = sim.RunReference(sys, rc); err == nil {
					if _, err = sim.Run(sys, rc); err == nil {
						_, err = reused.Run(rc)
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	if cc.ExhaustiveStates == 0 {
		return nil
	}
	var ex *exhaustive.Result
	tr.do(root, "exhaustive.explore", func() {
		ex, err = exhaustive.Explore(sys, exhaustive.Config{
			MaxStates: cc.ExhaustiveStates, Workers: cc.Workers, Reduce: cc.ExhaustiveReduce,
		})
	})
	if err != nil {
		return err
	}
	tr.do(root, "sim.search", func() {
		for t := 0; t < sys.NumFlows() && err == nil; t++ {
			if !schedulable(t, []core.Method{core.IBN, core.XLWX}) {
				continue
			}
			_, err = sim.SearchWorstCase(sys, sim.SearchConfig{
				Base: sim.Config{Duration: ex.Duration}, Target: t,
				Restarts: cc.Restarts, RefineSteps: cc.RefineSteps, ProbesPerFlow: cc.ProbesPerFlow,
				Workers: 1, Rand: rand.New(rand.NewSource(oracle.DeriveSeed(cc.Seed, exhaustiveSearchStream+int64(t)))),
			})
		}
	})
	return err
}

// exhaustiveSearchStream is the oracle's seed-stream offset of the
// in-class comparison searches.
const exhaustiveSearchStream = int64(1) << 32

func (v *verify) counters() (map[string]int64, map[string]float64) {
	var flows, simRuns, states, saved, cycles, fast, completed int64
	for i := range v.checks {
		base := i * verifyOpsPerRound
		flows += int64(v.checks[i].sys.NumFlows() + v.proofs[i].sys.NumFlows())
		for _, op := range []int{base, base + 1} {
			if rep := v.reports[op]; rep != nil {
				simRuns += int64(rep.SimRuns)
				if ex := rep.Exhaustive; ex != nil {
					states += ex.States
					saved += ex.StatesSaved
				}
			}
		}
		if r := v.simRes[base+2]; r != nil {
			cycles += int64(simDuration)
			fast += int64(r.Stats.FastPathCycles)
			for _, c := range r.Completed {
				completed += int64(c)
			}
		}
	}
	fp := map[string]int64{
		"scenarios":         int64(2 * len(v.checks)),
		"flows":             flows,
		"oracle.sim_runs":   simRuns,
		"exhaustive.states": states,
		"sim.packets":       completed,
	}
	layer := map[string]float64{
		"oracle.sim_runs":         float64(simRuns),
		"exhaustive.states":       float64(states),
		"exhaustive.states_saved": float64(saved),
		"sim.fastpath_frac":       ratio(float64(fast), float64(cycles)),
		"sim.cycles_per_s":        ratio(float64(cycles), float64(v.simNs)/1e9),
	}
	return fp, layer
}

func (v *verify) teardown() {}

func (v *verify) shape() map[string]any {
	return map[string]any{
		"fuzz_scenarios":  len(v.checks),
		"proof_scenarios": len(v.proofs),
		"simulations":     len(v.checks),
		"ops":             v.ops(),
		"check_workers":   v.cfg.workers,
		"explore_workers": v.cfg.workers,
		"proof_budget":    proofBudget,
	}
}
