package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"wormnoc/internal/core"
	"wormnoc/internal/noc"
	"wormnoc/internal/traffic"
	"wormnoc/internal/workload"
)

// exploreSetsPerSecond sizes the explore op list: flow sets per second
// of --seconds on a 2-core reference box.
const exploreSetsPerSecond = 7

// exploreChain is the what-if edit chain applied to every flow set, in
// order; each edit picks its flows from the seed.
var exploreChain = []core.DeltaKind{core.DeltaPeriod, core.DeltaPrioritySwap, core.DeltaMapping}

// exploreMesh is one platform of the Figure 4 sweeps with the flow-count
// range of its schedulability-collapse region (EXPERIMENTS.md).
type exploreMesh struct {
	w, h       int
	minN, maxN int
}

var exploreMeshes = []exploreMesh{{4, 4, 190, 340}, {8, 8, 300, 460}}

// exploreRouter is the platform of the Figure 4 sweeps: buf 2.
var exploreRouter = noc.RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0}

// exploreSet is one design point: a flow set and the edits tried on it.
type exploreSet struct {
	mesh   int
	flows  []traffic.Flow
	deltas []core.Delta
	final  *traffic.System // the set with every edit applied
}

// exploreOut holds one set's answers for the checks.
type exploreOut struct {
	xlwx, ibn, again, chain *core.Result
	tel                     core.Telemetry
	inc                     core.IncStats
}

// explore is the designer's loop: a cold XLWX+IBN analysis of each new
// flow set, a warm re-analysis, then a chain of what-if edits on a
// delta-aware engine.
type explore struct {
	cfg  config
	sets []exploreSet
	warm exploreSet
	// Set-up products.
	topos []*noc.Topology
	// Per-pass answers.
	out []exploreOut
}

func newExplore(cfg config) (*explore, error) {
	e := &explore{cfg: cfg}
	// The warm-up set does not depend on the seed, so every run's set-up
	// does the same work.
	var err error
	if e.warm, err = exploreGen(rand.New(rand.NewSource(0)), 1, 380); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	u := rng.Float64()
	for i := 0; i < exploreSetsPerSecond*cfg.seconds; i++ {
		mi := i % len(exploreMeshes)
		m := exploreMeshes[mi]
		s, err := exploreGen(rng, mi, spread(i/len(exploreMeshes), u, m.minN, m.maxN))
		if err != nil {
			return nil, err
		}
		e.sets = append(e.sets, s)
	}
	return e, nil
}

// spread returns the k-th value of a low-discrepancy sequence over
// [lo, hi] that starts at phase u in [0, 1): any prefix covers the range
// evenly, so runs at different seeds hold the same spread of sizes.
func spread(k int, u float64, lo, hi int) int {
	f := math.Mod(u+float64(k)*0.6180339887498949, 1)
	return lo + int(f*float64(hi-lo+1))
}

// exploreGen draws a rate-monotonic flow set of n flows on mesh mi and
// its edit chain.
func exploreGen(rng *rand.Rand, mi, n int) (exploreSet, error) {
	m := exploreMeshes[mi]
	topo, err := noc.NewMesh(m.w, m.h, exploreRouter)
	if err != nil {
		return exploreSet{}, err
	}
	sys, err := workload.Synthetic(topo, workload.SynthConfig{NumFlows: n, Seed: rng.Int63()})
	if err != nil {
		return exploreSet{}, err
	}
	s := exploreSet{mesh: mi, flows: append([]traffic.Flow(nil), sys.Flows()...)}
	cur := sys
	for _, k := range exploreChain {
		d := exploreDelta(rng, cur, k)
		if cur, err = core.ApplyDelta(cur, d); err != nil {
			return exploreSet{}, fmt.Errorf("explore: edit %s: %w", d, err)
		}
		s.deltas = append(s.deltas, d)
	}
	s.final = cur
	return s, nil
}

// exploreDelta draws one edit of kind k against sys.
func exploreDelta(rng *rand.Rand, sys *traffic.System, k core.DeltaKind) core.Delta {
	n := sys.NumFlows()
	i := rng.Intn(n)
	f := sys.Flow(i)
	switch k {
	case core.DeltaPeriod:
		// Anywhere from the deadline (the validity floor) to twice the
		// current period.
		lo, hi := int64(f.Deadline), 2*int64(f.Period)
		return core.Delta{Kind: k, Flow: i, Cycles: noc.Cycles(lo + rng.Int63n(hi-lo+1))}
	case core.DeltaPrioritySwap:
		o := rng.Intn(n - 1)
		if o >= i {
			o++
		}
		return core.Delta{Kind: k, Flow: i, Other: o}
	default:
		nodes := sys.Topology().NumNodes()
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		return core.Delta{Kind: k, Flow: i, Src: noc.NodeID(src), Dst: noc.NodeID(dst)}
	}
}

func (e *explore) kinds() map[string]string {
	return map[string]string{
		primary:   "analyze: traffic.NewSystem + core.BuildSets + Engine.Analyze(XLWX) + Engine.Analyze(IBN) of a new flow set",
		secondary: "whatif: Incremental.Apply of one edit + Incremental.Analyze(IBN)",
		tertiary:  "reanalyze: Engine.Analyze(IBN) again on the built engine (fixed point alone)",
	}
}

func (e *explore) ops() int { return len(e.sets) * e.opsPerSet() }

var (
	optXLWX = core.Options{Method: core.XLWX}
	optIBN  = core.Options{Method: core.IBN}
)

// didacticGolden is Table II's R(τ3) at buf 2 per analysis.
var didacticGolden = map[core.Method]noc.Cycles{core.SB: 336, core.XLWX: 460, core.IBN: 348}

// setup builds the platforms, checks the Table II golden and analyses
// one warm-up set, so lazily built state exists before timing.
func (e *explore) setup() error {
	e.topos = e.topos[:0]
	for _, m := range exploreMeshes {
		topo, err := noc.NewMesh(m.w, m.h, exploreRouter)
		if err != nil {
			return err
		}
		e.topos = append(e.topos, topo)
	}
	eng := core.NewEngine(workload.Didactic(2))
	for m, want := range didacticGolden {
		res, err := eng.Analyze(core.Options{Method: m})
		if err != nil {
			return err
		}
		if got := res.R(2); got != want {
			return fmt.Errorf("Table II golden: R(τ3) under %s = %d, want %d", m, got, want)
		}
	}
	_, err := e.runSet(nil, make([]opRecord, e.opsPerSet()), 0, e.warm)
	return err
}

func (e *explore) opsPerSet() int { return 2 + len(exploreChain) }

func (e *explore) run(tr *tracer, recs []opRecord) error {
	e.out = make([]exploreOut, len(e.sets))
	per := e.opsPerSet()
	for i, s := range e.sets {
		base := i * per
		for k := 0; k < per; k++ {
			recs[base+k] = opRecord{role: e.role(k), failed: true, err: errNotRun}
		}
		// An op error is recorded in recs; the rest of the set, which
		// depends on it, stays marked not run.
		e.out[i], _ = e.runSet(tr, recs, base, s)
	}
	return nil
}

// role is the role of the k-th op of a set.
func (e *explore) role(k int) string {
	switch k {
	case 0:
		return primary
	case 1:
		return tertiary
	}
	return secondary
}

// runSet runs one set's ops as ops base, base+1, ... of recs.
func (e *explore) runSet(tr *tracer, recs []opRecord, base int, s exploreSet) (exploreOut, error) {
	var out exploreOut
	ctx := context.Background()
	var eng *core.Engine
	err := timeOp(tr, recs, base, primary, func(root int64) error {
		var sys *traffic.System
		var err error
		tr.do(root, "traffic.system", func() { sys, err = traffic.NewSystem(e.topos[s.mesh], s.flows) })
		if err != nil {
			return err
		}
		var sets *core.Sets
		tr.do(root, "core.sets", func() { sets = core.BuildSets(sys) })
		eng = core.NewEngineWithSets(sys, sets)
		tr.do(root, "core.xlwx", func() { out.xlwx, err = eng.Analyze(optXLWX) })
		if err != nil {
			return err
		}
		tr.do(root, "core.ibn", func() { out.ibn, err = eng.Analyze(optIBN) })
		return err
	})
	if err != nil {
		return out, err
	}
	err = timeOp(tr, recs, base+1, tertiary, func(root int64) error {
		var err error
		tr.do(root, "core.ibn", func() { out.again, err = eng.Analyze(optIBN) })
		return err
	})
	if err != nil {
		return out, err
	}
	out.tel = eng.Telemetry()
	// The what-if engine shares the built sets; its first, full analysis
	// is the designer's starting point and not an edit.
	inc := eng.Incremental()
	if _, err := inc.Analyze(ctx, optIBN); err != nil {
		fail(recs, base+2, fmt.Errorf("what-if engine: %w", err))
		return out, err
	}
	for k, d := range s.deltas {
		err = timeOp(tr, recs, base+2+k, secondary, func(root int64) error {
			var err error
			tr.do(root, "core.whatif_apply", func() { err = inc.Apply(d) })
			if err != nil {
				return err
			}
			tr.do(root, "core.whatif_analyze", func() { out.chain, err = inc.Analyze(ctx, optIBN) })
			return err
		})
		if err != nil {
			return out, err
		}
	}
	out.inc = inc.Stats()
	return out, nil
}

// check holds every cold analysis to IBN <= XLWX per flow, the warm
// re-analysis to the cold IBN result, and each chain's final result to
// a from-scratch analysis of the edited set.
func (e *explore) check(_ *tracer, recs []opRecord) {
	per := e.opsPerSet()
	for i, s := range e.sets {
		base := i * per
		out := e.out[i]
		if recs[base].failed {
			continue
		}
		if err := ibnWithinXLWX(out.xlwx, out.ibn, e.cfg.tamperFn(base)); err != nil {
			fail(recs, base, err)
		}
		if err := sameResult(out.again, out.ibn, e.cfg.tamperFn(base+1)); err != nil {
			fail(recs, base+1, fmt.Errorf("warm re-analysis: %w", err))
		}
		last := base + per - 1
		if recs[last].failed {
			continue
		}
		want, err := core.NewEngine(s.final).Analyze(optIBN)
		if err == nil {
			err = sameResult(out.chain, want, e.cfg.tamperFn(last))
		}
		if err != nil {
			fail(recs, last, fmt.Errorf("edit chain vs scratch: %w", err))
		}
	}
}

// ibnWithinXLWX checks that IBN never loses a flow XLWX schedules and
// is never looser. tamper raises the IBN bound of the first flow XLWX
// schedules past the XLWX bound.
func ibnWithinXLWX(xlwx, ibn *core.Result, tamper bool) error {
	for i, fx := range xlwx.Flows {
		fi := ibn.Flows[i]
		if tamper && fx.Status == core.Schedulable {
			fi.R, tamper = fx.R+1, false
		}
		if fx.Status == core.Schedulable && (fi.Status != core.Schedulable || fi.R > fx.R) {
			return fmt.Errorf("flow %d: IBN %+v looser than XLWX %+v", i, fi, fx)
		}
	}
	return nil
}

// sameResult checks bit-identity. tamper perturbs the expected side.
func sameResult(got, want *core.Result, tamper bool) error {
	if len(got.Flows) != len(want.Flows) {
		return fmt.Errorf("%d flows, want %d", len(got.Flows), len(want.Flows))
	}
	for i, w := range want.Flows {
		if tamper && i == 0 {
			w.R++
		}
		if got.Flows[i] != w {
			return fmt.Errorf("flow %d: got %+v, want %+v", i, got.Flows[i], w)
		}
	}
	if got.Schedulable != want.Schedulable {
		return fmt.Errorf("schedulable %v, want %v", got.Schedulable, want.Schedulable)
	}
	return nil
}

func (e *explore) probe(*tracer) error { return nil }

func (e *explore) counters() (map[string]int64, map[string]float64) {
	var tel core.Telemetry
	var inc core.IncStats
	var flows int64
	for i, s := range e.sets {
		flows += int64(len(s.flows))
		tel.Add(e.out[i].tel)
		o := e.out[i].inc
		inc.FlowsReanalyzed += o.FlowsReanalyzed
		inc.FlowsSkipped += o.FlowsSkipped
		inc.WarmAccepted += o.WarmAccepted
		inc.WarmFallbacks += o.WarmFallbacks
	}
	fp := map[string]int64{
		"systems":               int64(len(e.sets)),
		"flows":                 flows,
		"core.iterations":       tel.Iterations,
		"core.flows_reanalyzed": inc.FlowsReanalyzed,
	}
	layer := map[string]float64{
		"core.iterations":        float64(tel.Iterations),
		"core.memo_hit_ratio":    ratio(float64(tel.MemoHits), float64(tel.MemoHits+tel.MemoMisses)),
		"core.reanalyzed_frac":   ratio(float64(inc.FlowsReanalyzed), float64(inc.FlowsReanalyzed+inc.FlowsSkipped)),
		"core.warm_accept_ratio": ratio(float64(inc.WarmAccepted), float64(inc.WarmAccepted+inc.WarmFallbacks)),
	}
	return fp, layer
}

func (e *explore) teardown() {}

func (e *explore) shape() map[string]any {
	var meshes []string
	for _, m := range exploreMeshes {
		meshes = append(meshes, fmt.Sprintf("%dx%d, %d-%d flows", m.w, m.h, m.minN, m.maxN))
	}
	return map[string]any{
		"sets":          len(e.sets),
		"edits_per_set": len(exploreChain),
		"ops":           e.ops(),
		"meshes":        meshes,
	}
}
