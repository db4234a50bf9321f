package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		want   tail
		wantOK bool
	}{
		{9, tail{Pct: 100, Value: 9, N: 9}, false},
		{20, tail{Pct: 50, Value: 10, N: 20, Beyond: 10}, true},
		{100, tail{Pct: 90, Value: 90, N: 100, Beyond: 10}, true},
		{109, tail{Pct: 90, Value: 99, N: 109, Beyond: 10}, true},
		{200, tail{Pct: 95, Value: 190, N: 200, Beyond: 10}, true},
		{1000, tail{Pct: 99, Value: 990, N: 1000, Beyond: 10}, true},
		// The ladder stops at p99, however many samples there are.
		{20000, tail{Pct: 99, Value: 19800, N: 20000, Beyond: 200}, true},
	} {
		got, ok := tailOf(seq(tc.n))
		if ok != tc.wantOK || got != tc.want {
			t.Errorf("n=%d: tailOf = %+v, %v; want %+v, %v", tc.n, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.primary", Start: 0, End: 100},
		// Two overlapping children and one that outlives the parent.
		{ID: 2, Parent: 1, Name: "core.sets", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.sets", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "core.ibn", Start: 90, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "traffic.system", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 10, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if ls := sum["core.sets"]; ls.Calls != 2 || ls.BusyNs != 50 || ls.SelfNs != 40 {
		t.Errorf("core.sets summary = %+v, want 2 calls, busy 50, self 40", ls)
	}
}

func TestLoadedFracCanComeOutLow(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.primary", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "oracle.check", Start: 0, End: 100},
		// The probe finds a fifth of the check's time in sim.
		{ID: 3, Name: "probe", Start: 200, End: 260},
		{ID: 4, Parent: 3, Name: "sim.search", Start: 200, End: 220},
		{ID: 5, Parent: 3, Name: "core.ibn", Start: 220, End: 290},
		// Spans under a check's root never count.
		{ID: 6, Name: "check.simulate", Start: 300, End: 400},
		{ID: 7, Parent: 6, Name: "sim.run", Start: 300, End: 400},
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if f := loadedFrac(byID, "verify"); f != 0.2 {
		t.Errorf("verify share %v, want 0.2", f)
	}
	// Serve counts the core work the probes find as not loaded.
	if f := loadedFrac(byID, "serve"); math.Abs(f-0.3) > 1e-12 {
		t.Errorf("serve share %v, want 0.3", f)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	root := tr.start("op.primary", 0, 7)
	tr.do(root, "core.ibn", func() {})
	open := tr.start("never.closed", 0, 8)
	tr.end(root)
	_ = open
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot holds %d spans, want the 2 closed ones", len(got))
	}
	if c := got[1]; c.Parent != root || c.Op != 7 || c.Name != "core.ibn" {
		t.Errorf("child span = %+v, want parent %d and op 7", c, root)
	}
	var untraced *tracer
	ran := false
	untraced.do(untraced.start("op.primary", 0, 1), "core.ibn", func() { ran = true })
	if !ran || untraced.snapshot() != nil {
		t.Error("a nil tracer must run the call and record nothing")
	}
}

// TestSmokeWorkloads runs each workload at a seconds-long size with
// tracing on, with the expected answers of a few ops corrupted: exactly
// those ops must count as failed, and the layers the workload is said
// to load must account for most of its traced time.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Ops whose answers the checks compare: explore's cold analysis,
	// re-analysis and last edit of the first set; the first op of each
	// role elsewhere.
	tampered := map[string][]int{
		"explore": {0, 1, 1 + len(exploreChain)},
		"verify":  {0, 1, 2},
		"serve":   {0, 1, 2, 3, 4},
	}
	for _, name := range []string{"explore", "verify", "serve"} {
		t.Run(name, func(t *testing.T) {
			bad := map[int]bool{}
			for _, op := range tampered[name] {
				bad[op] = true
			}
			cfg := config{workload: name, seed: 99, seconds: 1, workers: runtime.NumCPU(),
				tamper: func(op int) bool { return bad[op] }}
			w, err := newBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := runPass(w, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			var failed []int
			for i, r := range p.recs {
				if r.failed {
					failed = append(failed, i)
				}
			}
			want := append([]int(nil), tampered[name]...)
			sort.Ints(want)
			if len(failed) != len(want) {
				t.Fatalf("failed ops %v, want exactly the tampered %v (first errors: %v)", failed, want, firstErrors(p.recs))
			}
			for i := range want {
				if failed[i] != want[i] {
					t.Fatalf("failed ops %v, want %v", failed, want)
				}
			}
			m := layerMetrics(p, p, name)
			if f := m["trace.loaded_frac"].Value; f < 0.5 {
				t.Errorf("loaded layers hold %.2f of the traced time, want most of it", f)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	p := &passResult{elapsed: 1, recs: []opRecord{{role: primary}, {role: secondary}, {role: tertiary}}}
	e2e := endToEnd(p, map[string]tail{})
	layer := layerMetrics(p, p, "explore")
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{b.EndToEnd, e2e}, {b.PerLayer, layer}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if g, ok := c.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("metric %s (%s): program prints %+v, %v", m.Name, m.Unit, g, ok)
			}
		}
	}
}
