package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"wormnoc/internal/canon"
	"wormnoc/internal/core"
	"wormnoc/internal/oracle"
	"wormnoc/internal/serve"
	"wormnoc/internal/traffic"
)

// serveRequestsPerSecond sizes the serve request list per second of
// --seconds on a 2-core reference box.
const serveRequestsPerSecond = 10000

// The traffic follows cmd/nocload's defaults: systems drawn by
// oracle.Generate with the default GenConfig, a working set of
// serveHotSet systems with Zipf(serveZipfS) popularity, and analyze and
// what-if requests weighted 70:15. nocload's 15% batch share is left
// out; batch items are analyses, which hits and misses already time.
// How the analyses split into hits and misses is this benchmark's own
// choice, not a measured one: nocload's working set fits the result
// cache, so its steady state has almost no misses, too few to time.
// Every cycle of serveCycle requests holds serveHits hits, serveMisses
// misses and serveWhatIfs what-if chains of serveChainLen edits.
const (
	serveHotSet   = 64
	serveZipfS    = 1.2
	serveHits     = 10
	serveMisses   = 4
	serveWhatIfs  = 3
	serveChainLen = 2
)

// serveConfig is the server configuration under test: the defaults,
// except that the result cache, while it holds the hot set many times
// over, has fewer entries than a run inserts, so misses and what-if
// steps evict. Misses also evict hot bases from the default 64-engine
// cache; a what-if then gets 404 and is resent with its base inline, as
// docs/API.md tells clients to.
var serveConfig = serve.Config{ResultCacheSize: 1024}

// hdrSpan carries the client's round-trip span id to the handler
// middleware when tracing is on.
const hdrSpan = "X-Perfbench-Span"

// serveReq is one request of the list.
type serveReq struct {
	role string
	path string
	body []byte
	// hot indexes a what-if's base in the hot set.
	hot int
	// sys is a hot system or what-if base (nil for a miss, whose system
	// the check decodes from body, so that a run holds each miss's
	// system only once); deltas is the what-if chain.
	sys    *traffic.System
	deltas []core.Delta
	flows  int
}

// digest hashes every field of a result's flows and its verdict, so a
// run keeps one number per result for the checks.
func digest(flows []serve.FlowResult, schedulable bool) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, f := range flows {
		buf = append(buf[:0], f.Name...)
		buf = append(buf, 0)
		buf = append(buf, f.Status...)
		buf = append(buf, 0)
		for _, v := range []int64{int64(f.Priority), f.C, f.Deadline, f.R} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	if schedulable {
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// serveBench drives serve.New(...).Handler() behind a loopback listener
// with one closed-loop client on one keep-alive connection. A second
// client made the latencies noisier on a 2-core box without loading any
// other layer.
type serveBench struct {
	cfg     config
	hot     []*traffic.System
	hotBody [][]byte
	reqs    []serveReq

	// Set-up products.
	srv     *serve.Server
	hsrv    *http.Server
	client  *http.Client
	url     string
	served  chan error
	tr      atomic.Pointer[tracer]
	cache   [2]cacheCounts // before and after the timed phase
	resends int64

	// Per-pass answers: result digests per request (one for
	// /v1/analyze, one per step for /v1/whatif).
	answers [][]uint64
}

type cacheCounts struct{ hits, misses int64 }

func newServe(cfg config) (*serveBench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// gen draws a system of n flows the way nocload does.
	gen := func(n int) (*traffic.System, error) {
		for {
			sys, err := oracle.Generate(rng.Int63(), oracle.GenConfig{}).System()
			if err != nil || sys.NumFlows() == n {
				return sys, err
			}
		}
	}
	s := &serveBench{cfg: cfg}
	hotKeys := make([]string, serveHotSet)
	for i := 0; i < serveHotSet; i++ {
		// Sizes by popularity rank are the same at every seed, so the
		// hits' cost does not hinge on which system the seed makes
		// popular. What-ifs re-analyse the most popular bases over and
		// over, so each is a typical draw of its size: the one with the
		// median fixed-point work among serveHotDraws.
		sys, err := typical(gen, spread(i, 0.5, 2, fuzzMaxFlows))
		if err != nil {
			return nil, err
		}
		body, err := analyzeBody(sys)
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, sys)
		s.hotBody = append(s.hotBody, body)
		hotKeys[i] = canon.SystemKey(sys.ToDocument())
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveHotSet-1)
	u := rng.Float64()
	misses := 0
	var cycle []string
	for role, n := range map[string]int{tertiary: serveHits, primary: serveMisses, secondary: serveWhatIfs} {
		for k := 0; k < n; k++ {
			cycle = append(cycle, role)
		}
	}
	sort.Strings(cycle)
	// The mix is exact at every seed: each cycle is shuffled, not drawn.
	for len(s.reqs) < serveRequestsPerSecond*cfg.seconds {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, role := range cycle {
			r, err := s.request(rng, role, zipf, hotKeys, func() (*traffic.System, error) {
				misses++
				return gen(spread(misses-1, u, 2, fuzzMaxFlows))
			})
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, r)
		}
	}
	return s, nil
}

// serveHotDraws is how many systems typical draws per hot-set slot.
const serveHotDraws = 5

// typical draws serveHotDraws systems of n flows and returns the one
// whose IBN analysis takes the median number of fixed-point iterations.
func typical(gen func(n int) (*traffic.System, error), n int) (*traffic.System, error) {
	type draw struct {
		sys   *traffic.System
		iters int64
	}
	draws := make([]draw, serveHotDraws)
	for k := range draws {
		sys, err := gen(n)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(sys)
		if _, err := eng.Analyze(optIBN); err != nil {
			return nil, err
		}
		draws[k] = draw{sys, eng.Telemetry().Iterations}
	}
	sort.Slice(draws, func(a, b int) bool { return draws[a].iters < draws[b].iters })
	return draws[len(draws)/2].sys, nil
}

// request draws one request of role; fresh makes a miss's new system.
func (s *serveBench) request(rng *rand.Rand, role string, zipf *rand.Zipf, hotKeys []string,
	fresh func() (*traffic.System, error)) (serveReq, error) {
	switch role {
	case tertiary:
		h := int(zipf.Uint64())
		return serveReq{role: role, path: "/v1/analyze", body: s.hotBody[h], sys: s.hot[h], flows: s.hot[h].NumFlows()}, nil
	case secondary:
		h := int(zipf.Uint64())
		r := serveReq{role: role, path: "/v1/whatif", sys: s.hot[h], hot: h, flows: s.hot[h].NumFlows()}
		cur := s.hot[h]
		for k := 0; k < serveChainLen; k++ {
			d := exploreDelta(rng, cur, exploreChain[rng.Intn(len(exploreChain))])
			var err error
			if cur, err = core.ApplyDelta(cur, d); err != nil {
				return r, err
			}
			r.deltas = append(r.deltas, d)
		}
		var err error
		r.body, err = whatIfBody(serve.WhatIfRequest{SystemKey: hotKeys[h]}, r.deltas)
		return r, err
	}
	sys, err := fresh()
	if err != nil {
		return serveReq{}, err
	}
	r := serveReq{role: role, path: "/v1/analyze", flows: sys.NumFlows()}
	r.body, err = analyzeBody(sys)
	return r, err
}

// decodeSystem materialises the system of an analyze body.
func (r serveReq) decodeSystem() (*traffic.System, error) {
	var req serve.AnalyzeRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return nil, err
	}
	return req.System.System()
}

func analyzeBody(sys *traffic.System) ([]byte, error) {
	return json.Marshal(serve.AnalyzeRequest{System: sys.ToDocument(), Method: "IBN"})
}

// whatIfBody completes req, which names the base, with the chain.
func whatIfBody(req serve.WhatIfRequest, deltas []core.Delta) ([]byte, error) {
	req.Method = "IBN"
	for _, d := range deltas {
		req.Deltas = append(req.Deltas, serve.DeltaSpec{
			Kind: d.Kind.String(), Flow: d.Flow, Other: d.Other, Cycles: int64(d.Cycles),
			Src: int(d.Src), Dst: int(d.Dst),
		})
	}
	return json.Marshal(req)
}

func (s *serveBench) kinds() map[string]string {
	return map[string]string{
		primary:   "miss: POST /v1/analyze round trip of a system the server has not seen",
		secondary: "whatif: POST /v1/whatif round trip of an edit chain by system_key against a hot base",
		tertiary:  "hit: POST /v1/analyze round trip of a hot-set system the result cache holds",
	}
}

func (s *serveBench) ops() int { return len(s.reqs) }

// setup starts the server on a loopback listener and warms the hot set
// into its caches.
func (s *serveBench) setup() error {
	s.srv = serve.New(serveConfig)
	h := s.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hsrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handle(h, w, r)
	})}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hsrv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	for _, body := range s.hotBody {
		if _, _, err := s.post(nil, 0, "/v1/analyze", body); err != nil {
			return fmt.Errorf("warming the hot set: %w", err)
		}
	}
	return nil
}

// handle is the benchmark-side middleware: with tracing on it records
// the handler's span under the client's round-trip span.
func (s *serveBench) handle(h http.Handler, w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	tr.do(parent, "serve.handler", func() { h.ServeHTTP(w, r) })
}

// post sends one request and returns the status and body of the
// response; a status other than 200 is also an error.
func (s *serveBench) post(tr *tracer, parent int64, path string, body []byte) (int, []byte, error) {
	id := tr.child(parent, "http.transport")
	defer tr.end(id)
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return resp.StatusCode, out, err
}

func (s *serveBench) run(tr *tracer, recs []opRecord) error {
	before, err := s.cacheCounts()
	if err != nil {
		return err
	}
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	s.answers = make([][]uint64, len(s.reqs))
	s.resends = 0
	for i, r := range s.reqs {
		var body []byte
		err := timeOp(tr, recs, i, r.role, func(root int64) error {
			status, out, err := s.post(tr, root, r.path, r.body)
			if status == http.StatusNotFound && r.path == "/v1/whatif" {
				s.resends++
				doc := s.hot[r.hot].ToDocument()
				var inline []byte
				if inline, err = whatIfBody(serve.WhatIfRequest{System: &doc}, r.deltas); err != nil {
					return err
				}
				_, out, err = s.post(tr, root, r.path, inline)
			}
			body = out
			return err
		})
		if err == nil {
			s.answers[i], err = decodeAnswer(r.path, body)
		}
		if err != nil {
			fail(recs, i, err)
		}
	}
	after, err := s.cacheCounts()
	if err != nil {
		return err
	}
	s.cache = [2]cacheCounts{before, after}
	return nil
}

func decodeAnswer(path string, body []byte) ([]uint64, error) {
	if path == "/v1/analyze" {
		var r serve.AnalyzeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []uint64{digest(r.Flows, r.Schedulable)}, nil
	}
	var r serve.WhatIfResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.Failed != 0 {
		return nil, fmt.Errorf("what-if step failed: %+v", r.Steps[len(r.Steps)-1])
	}
	var out []uint64
	for _, st := range r.Steps {
		if st.AnalyzeResponse == nil {
			return nil, errors.New("what-if step carries no result")
		}
		out = append(out, digest(st.Flows, st.Schedulable))
	}
	return out, nil
}

// cacheCounts reads the result cache's counters from /metrics.
func (s *serveBench) cacheCounts() (cacheCounts, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return cacheCounts{}, err
	}
	defer resp.Body.Close()
	var m struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return cacheCounts{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return cacheCounts{m.Cache.Hits, m.Cache.Misses}, nil
}

// check holds every 200 body to an in-process analysis of the same
// request: the system itself, or the base with the chain applied up to
// each step.
func (s *serveBench) check(_ *tracer, recs []opRecord) {
	// Digests of the hot systems, which many requests share.
	hot := map[*traffic.System]uint64{}
	for _, sys := range s.hot {
		hot[sys] = 0
	}
	want := func(sys *traffic.System, tamper bool) (uint64, error) {
		if w := hot[sys]; w != 0 && !tamper {
			return w, nil
		}
		res, err := core.NewEngine(sys).Analyze(optIBN)
		if err != nil {
			return 0, err
		}
		w := make([]serve.FlowResult, sys.NumFlows())
		for i := range w {
			f := sys.Flow(i)
			w[i] = serve.FlowResult{Name: f.Name, Priority: f.Priority, C: int64(sys.C(i)),
				Deadline: int64(f.Deadline), R: int64(res.Flows[i].R), Status: res.Flows[i].Status.String()}
		}
		if tamper {
			w[0].R++
		}
		d := digest(w, res.Schedulable)
		if _, ok := hot[sys]; ok && !tamper {
			hot[sys] = d
		}
		return d, nil
	}
	for i, r := range s.reqs {
		if recs[i].failed {
			continue
		}
		systems := []*traffic.System{r.sys}
		if r.sys == nil {
			sys, err := r.decodeSystem()
			if err != nil {
				fail(recs, i, err)
				continue
			}
			systems[0] = sys
		}
		if len(r.deltas) > 0 {
			systems = systems[:0]
			cur := r.sys
			for _, d := range r.deltas {
				var err error
				if cur, err = core.ApplyDelta(cur, d); err != nil {
					fail(recs, i, err)
					break
				}
				systems = append(systems, cur)
			}
		}
		got := s.answers[i]
		if len(got) != len(systems) {
			fail(recs, i, fmt.Errorf("%d results, want %d", len(got), len(systems)))
			continue
		}
		for k, sys := range systems {
			w, err := want(sys, s.cfg.tamperFn(i))
			if err == nil && got[k] != w {
				err = fmt.Errorf("result %d differs from the in-process analysis", k)
			}
			if err != nil {
				fail(recs, i, err)
				break
			}
		}
	}
}

// probe repeats, per request, the work the handler does inside the
// program: strict decoding of an analyze body and its canonical key,
// then on a miss the system, its sets and the IBN analysis, and on a
// what-if each edit and its re-analysis. The traffic and core spans are
// the handler's work outside the layers serve loads.
func (s *serveBench) probe(tr *tracer) error {
	for i, r := range s.reqs {
		root := tr.start("probe", 0, int64(i))
		err := s.probeOne(tr, root, r)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *serveBench) probeOne(tr *tracer, root int64, r serveReq) error {
	var err error
	if r.path == "/v1/whatif" {
		// The server holds the base's warm engine; building it here is
		// not timed.
		inc := core.NewEngine(r.sys).Incremental()
		if _, err = inc.Analyze(context.Background(), optIBN); err != nil {
			return err
		}
		for _, d := range r.deltas {
			tr.do(root, "core.whatif_apply", func() { err = inc.Apply(d) })
			if err != nil {
				return err
			}
			tr.do(root, "core.whatif_analyze", func() { _, err = inc.Analyze(context.Background(), optIBN) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	var req serve.AnalyzeRequest
	tr.do(root, "serve.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	tr.do(root, "canon.key", func() { _ = canon.Key(req.System, optIBN) })
	if r.role != primary {
		return nil
	}
	var sys *traffic.System
	tr.do(root, "traffic.system", func() { sys, err = req.System.System() })
	if err != nil {
		return err
	}
	var sets *core.Sets
	tr.do(root, "core.sets", func() { sets = core.BuildSets(sys) })
	tr.do(root, "core.ibn", func() { _, err = core.NewEngineWithSets(sys, sets).Analyze(optIBN) })
	return err
}

func (s *serveBench) counters() (map[string]int64, map[string]float64) {
	var flows int64
	byRole := map[string]int64{}
	for _, r := range s.reqs {
		flows += int64(r.flows)
		byRole[r.role]++
	}
	hits := s.cache[1].hits - s.cache[0].hits
	misses := s.cache[1].misses - s.cache[0].misses
	fp := map[string]int64{
		"requests":           int64(len(s.reqs)),
		"requests.miss":      byRole[primary],
		"requests.whatif":    byRole[secondary],
		"requests.hit":       byRole[tertiary],
		"flows":              flows,
		"serve.cache_hits":   hits,
		"serve.cache_misses": misses,
		"serve.resends":      s.resends,
	}
	layer := map[string]float64{"serve.cache_hit_ratio": ratio(float64(hits), float64(hits+misses))}
	return fp, layer
}

// teardown stops the server and waits for its goroutines.
func (s *serveBench) teardown() {
	if s.hsrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hsrv.Shutdown(ctx) // errors only on timeout; Serve's return below is awaited either way
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.hsrv = nil
}

func (s *serveBench) shape() map[string]any {
	return map[string]any{
		"requests":         len(s.reqs),
		"hot_set":          serveHotSet,
		"clients":          1,
		"max_in_flight":    2 * runtime.GOMAXPROCS(0), // serve's default
		"result_cache":     serveConfig.ResultCacheSize,
		"engine_cache":     64, // serve's default
		"flows_per_system": []int{2, fuzzMaxFlows},
		"zipf_s":           serveZipfS,
		"mix_per_cycle":    map[string]int{"hit": serveHits, "miss": serveMisses, "whatif": serveWhatIfs},
	}
}
