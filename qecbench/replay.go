package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	qec "repro"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

// Replay sizes: the traced run replays the first replayCap requests of its
// timed window; the first allocSample of them are measured for allocations
// instead of time.
const (
	replayCap   = 2000
	allocSample = 100
)

// span is one timed interval of the replay. Spans of one request share req
// (the request's stream position); parent is the enclosing span's id, -1 for
// a root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int32, req int) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: int32(req), Start: t.now()})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].End = t.now() }

// add records a span measured elsewhere, with offsets from the epoch.
func (t *tracer) add(name string, parent int32, req int, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: int32(req), Start: start, End: end})
	return id
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stage span names of the chain of public calls one expansion makes, in
// pipeline order.
var stages = []string{
	"search.parse", "search.retrieve", "core.universe", "cluster.kmeans", "core.problems", "core.solve",
}

// allocs counts heap allocations of the calls between two readings. The
// replay runs nothing else meanwhile, so the count is exact.
type allocs struct{ ms runtime.MemStats }

func (a *allocs) start() { runtime.ReadMemStats(&a.ms) }

func (a *allocs) stop() uint64 {
	before := a.ms.Mallocs
	runtime.ReadMemStats(&a.ms)
	return a.ms.Mallocs - before
}

// counter is a per-layer running mean.
type counter struct {
	sum float64
	n   int
}

func (c *counter) add(v float64) { c.sum += v; c.n++ }

// mean is the running mean, 0 for a layer never called.
func (c *counter) mean() float64 {
	if c == nil {
		return 0
	}
	return ratio(c.sum, float64(c.n))
}

// tally adds v to the counter of name in m.
func tally(m map[string]*counter, name string, v float64) {
	c := m[name]
	if c == nil {
		c = &counter{}
		m[name] = c
	}
	c.add(v)
}

// replayer replays requests in-process through two engines built like the
// server's: ref for the chain of public calls and the engine's own calls,
// and srv (behind server.New's handler) for the HTTP layer.
type replayer struct {
	ref  *qec.Engine
	idx  *index.Index
	se   *search.Engine
	te   *timedEngine
	h    http.Handler
	tr   *tracer
	seed int64

	alloc  map[string]*counter // allocations per call, by layer
	counts map[string]*counter // work counts per call
	// handler holds each replayed request's handler time, by stream
	// position, for the transport estimate.
	handler map[int]time.Duration
}

func newReplayer(ref, srvEng *qec.Engine, snap []byte) (*replayer, error) {
	idx, err := index.Load(bytes.NewReader(snap), analysis.Simple())
	if err != nil {
		return nil, fmt.Errorf("load replay index: %w", err)
	}
	epoch := time.Now()
	te := &timedEngine{Engine: srvEng, epoch: epoch}
	// The handler runs with qec-serve's shipped defaults.
	h := server.New(te, server.Options{
		RequestTimeout: 10 * time.Second,
		FlightCapacity: 256,
		Degrade:        true,
		DegradeMaxTier: 4,
	}).Handler()
	return &replayer{
		ref: ref, idx: idx, se: search.NewEngine(idx), te: te, h: h,
		tr:      &tracer{epoch: epoch, spans: make([]span, 0, 16*replayCap)},
		seed:    engineSeed,
		alloc:   map[string]*counter{},
		counts:  map[string]*counter{},
		handler: map[int]time.Duration{},
	}, nil
}

// warm fills both engines' caches with the hot set, as the loopback run's
// warm-up filled the server's.
func (rp *replayer) warm(reqs []*request) error {
	for _, r := range reqs {
		if _, err := rp.ref.Expand(r.query, r.options()); err != nil {
			return fmt.Errorf("warm %s: %w", r.body, err)
		}
		if status := rp.serve(r); status != http.StatusOK {
			return fmt.Errorf("warm %s through the handler: status %d", r.body, status)
		}
	}
	return nil
}

// stage runs one call of the chain, either timed as a span under parent or,
// with a non-nil a, counted for allocations.
func (rp *replayer) stage(name string, parent int32, req int, a *allocs, fn func()) {
	if a != nil {
		a.start()
		fn()
		tally(rp.alloc, name, float64(a.stop()))
		return
	}
	id := rp.tr.begin(name, parent, req)
	fn()
	rp.tr.end(id)
}

// chain runs the public calls one expansion makes and assembles their
// result the way the engine does (qec's clusteredExpander).
func (rp *replayer) chain(r *request, parent int32, a *allocs) (*qec.Expansion, error) {
	opts := r.options()
	var q search.Query
	var results []search.Result
	rp.stage("search.parse", parent, r.id, a, func() { q = search.ParseQuery(rp.idx, r.query) })
	rp.stage("search.retrieve", parent, r.id, a, func() { results = rp.se.SearchPruned(q, search.And, opts.TopK, nil) })
	if a != nil {
		rp.pruneCounts(q, opts.TopK)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no results for %q", r.query)
	}
	var u *core.Universe
	rp.stage("core.universe", parent, r.id, a, func() {
		weights := eval.Weights{}
		for _, res := range results {
			weights[res.Doc] = res.Score
		}
		u = core.NewUniverse(rp.idx, q, search.ResultIDs(results), weights, core.DefaultPoolOptions())
		u.Vectors()
	})
	k := opts.K
	if k <= 0 {
		k = 3
	}
	var cl *cluster.Clustering
	rp.stage("cluster.kmeans", parent, r.id, a, func() {
		cl = cluster.KMeansVecs(rp.idx.NumTerms(), u.Vectors(), u.Docs(), cluster.Options{
			K: k, Seed: rp.seed, PlusPlus: true, Restarts: 5, Quality: opts.Quality,
		})
	})
	tally(rp.counts, "cluster.iterations_per_run", float64(cl.TotalIterations))
	tally(rp.counts, "cluster.restarts_per_run", float64(cl.Restarts))
	var problems []*core.Problem
	rp.stage("core.problems", parent, r.id, a, func() { problems = u.Problems(cl.Sets()) })
	var expander core.Expander = &core.ISKR{}
	if opts.Method == qec.PEBC {
		expander = &core.PEBC{Seed: rp.seed}
	}
	var res *core.QECResult
	var err error
	rp.stage("core.solve", parent, r.id, a, func() { res, err = core.SolveCtx(context.Background(), expander, problems) })
	if err != nil {
		return nil, err
	}
	out := &qec.Expansion{Original: q.Terms, Clusters: cl.Clusters, Score: res.Score}
	for i, ce := range res.Expansions {
		out.Queries = append(out.Queries, qec.ExpandedQuery{
			Terms: ce.Expanded.Query.Terms, Cluster: i,
			Precision: ce.Expanded.PRF.Precision, Recall: ce.Expanded.PRF.Recall, F: ce.Expanded.PRF.F,
		})
	}
	return out, nil
}

// pruneCounts records the retrieval's pruning counters for one call, outside
// any timed or counted interval.
func (rp *replayer) pruneCounts(q search.Query, topK int) {
	var ps search.PruneStats
	rp.se.SearchPruned(q, search.And, topK, &ps)
	tally(rp.counts, "search.docs_scored", float64(ps.DocsScored))
	tally(rp.counts, "search.blocks_skipped", float64(ps.BlocksSkipped))
}

// request replays one request through the chain and the engine's entry
// point and checks that the two agree. The order of the two alternates by
// position, so neither always runs with the other's warm CPU caches. With a
// non-nil a the calls are counted for allocations instead of timed.
func (rp *replayer) request(r *request, pos int, a *allocs) error {
	root := int32(-1)
	if a == nil {
		root = rp.tr.begin("request", -1, r.id)
		defer rp.tr.end(root)
	}
	chainFirst := pos%2 == 0
	if r.ep == epSearch {
		var want []qec.Result
		var got []search.Result
		runChain := func() {
			var q search.Query
			c := int32(-1)
			if a == nil {
				c = rp.tr.begin("replay.chain", root, r.id)
			}
			rp.stage("search.parse", c, r.id, a, func() { q = search.ParseQuery(rp.idx, r.query) })
			rp.stage("search.retrieve", c, r.id, a, func() { got = rp.se.SearchPruned(q, search.And, r.topK, nil) })
			if a != nil {
				rp.pruneCounts(q, r.topK)
			} else {
				rp.tr.end(c)
			}
		}
		runWhole := func() {
			rp.stage("qec.search", root, r.id, a, func() { want = rp.ref.Search(r.query, r.topK) })
		}
		if chainFirst {
			runChain()
			runWhole()
		} else {
			runWhole()
			runChain()
		}
		return sameResults(want, got)
	}

	opts := r.options()
	var hit bool
	if a != nil {
		a.start()
		if _, hit = rp.ref.ExpandCached(r.query, opts); hit {
			tally(rp.alloc, "qec.cache_lookup", float64(a.stop()))
		}
	} else {
		start := rp.tr.now()
		if _, hit = rp.ref.ExpandCached(r.query, opts); hit {
			rp.tr.add("qec.cache_lookup", root, r.id, start, rp.tr.now())
		}
	}
	if hit {
		return nil
	}
	var want, got *qec.Expansion
	var werr, gerr error
	runChain := func() {
		c := int32(-1)
		if a == nil {
			c = rp.tr.begin("replay.chain", root, r.id)
		}
		got, gerr = rp.chain(r, c, a)
		if a == nil {
			rp.tr.end(c)
		}
	}
	runWhole := func() {
		rp.stage("qec.expand", root, r.id, a, func() {
			want, werr = rp.ref.ExpandTraced(context.Background(), r.query, opts, nil)
		})
	}
	if chainFirst {
		runChain()
		runWhole()
	} else {
		runWhole()
		runChain()
	}
	if werr != nil || gerr != nil {
		return fmt.Errorf("engine: %v, chain: %v", werr, gerr)
	}
	return sameExpansion(want, got)
}

func sameResults(want, got []search.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("result %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// serve runs one request through the in-process handler and returns its
// status.
func (rp *replayer) serve(r *request) int {
	w := &discardWriter{h: http.Header{}}
	rp.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.ep.path(), bytes.NewReader(r.body)))
	return w.status
}

// handle times one request through the handler as a server.handler span
// with the engine call as its child, or counts its allocations.
func (rp *replayer) handle(r *request, a *allocs) error {
	w := &discardWriter{h: http.Header{}}
	hr := httptest.NewRequest(http.MethodPost, r.ep.path(), bytes.NewReader(r.body))
	if a != nil {
		a.start()
		rp.h.ServeHTTP(w, hr)
		tally(rp.alloc, "server.handler", float64(a.stop()))
	} else {
		id := rp.tr.begin("server.handler", -1, r.id)
		rp.h.ServeHTTP(w, hr)
		rp.tr.end(id)
		rp.tr.add("server.engine", id, r.id, rp.te.start.Load(), rp.te.end.Load())
		rp.handler[r.id] = rp.tr.spans[id].dur()
	}
	if w.status != http.StatusOK {
		return fmt.Errorf("handler answered %s with status %d", r.body, w.status)
	}
	return nil
}

// timedEngine is the server's engine, with the interval of its last call
// recorded so the handler's own time can be told apart. A handler makes one
// engine call per request, on a goroutine of its own for /expand.
type timedEngine struct {
	*qec.Engine
	epoch      time.Time
	start, end atomic.Int64 // offsets from epoch
}

func (t *timedEngine) mark(start time.Time) {
	t.start.Store(int64(start.Sub(t.epoch)))
	t.end.Store(int64(time.Since(t.epoch)))
}

func (t *timedEngine) Search(raw string, topK int) []qec.Result {
	defer t.mark(time.Now())
	return t.Engine.Search(raw, topK)
}

func (t *timedEngine) ExpandTraced(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, error) {
	defer t.mark(time.Now())
	return t.Engine.ExpandTraced(ctx, raw, opts, tr)
}

func (t *timedEngine) ExpandCached(raw string, opts qec.ExpandOptions) (*qec.Expansion, bool) {
	defer t.mark(time.Now())
	return t.Engine.ExpandCached(raw, opts)
}

func (t *timedEngine) ExpandExplained(ctx context.Context, raw string, opts qec.ExpandOptions, tr *obs.Trace) (*qec.Expansion, *qec.Explain, error) {
	defer t.mark(time.Now())
	return t.Engine.ExpandExplained(ctx, raw, opts, tr)
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// layerStats derives the per-layer metrics from the spans: mean time per
// call of each layer (0 for a layer the stream never called), the engine's
// own time around the stages, and the share of the engine's time the stage
// spans cover. The chain and the engine call are separate executions of one
// expansion, so the last two are medians over requests of per-request
// differences and ratios; the engine's own time is within the noise of two
// ~1 ms timings and may read below zero.
func (rp *replayer) layerStats(service map[int]time.Duration) map[string]float64 {
	per := map[string]*counter{}
	add := func(name string, d time.Duration) { tally(per, name, float64(d)/float64(time.Microsecond)) }
	isStage := map[string]bool{}
	for _, s := range stages {
		isStage[s] = true
	}
	chainReq := map[int32]int32{}         // chain span id → request
	stagesOf := map[int32]time.Duration{} // request → Σ stage spans of its chain
	expandOf := map[int32]time.Duration{} // request → qec.expand span
	handlerSelf := map[int32]time.Duration{}
	for i := range rp.tr.spans {
		s := &rp.tr.spans[i]
		switch {
		case s.Name == "replay.chain":
			chainReq[s.ID] = s.Req
		case isStage[s.Name]:
			add(s.Name, s.dur())
		case s.Name == "qec.expand":
			expandOf[s.Req] = s.dur()
			add(s.Name, s.dur())
		case s.Name == "server.handler":
			handlerSelf[s.ID] += s.dur()
			add(s.Name, s.dur())
		case s.Name == "server.engine":
			handlerSelf[s.Parent] -= s.dur()
		case s.Name == "qec.search", s.Name == "qec.cache_lookup":
			add(s.Name, s.dur())
		}
	}
	for i := range rp.tr.spans {
		// A stage span's parent is its chain span, opened before it.
		if s := &rp.tr.spans[i]; isStage[s.Name] {
			if req, ok := chainReq[s.Parent]; ok {
				stagesOf[req] += s.dur()
			}
		}
	}
	var self, coverage []float64
	for req, d := range expandOf {
		st := stagesOf[req]
		self = append(self, float64(d-st)/float64(time.Microsecond))
		coverage = append(coverage, ratio(float64(st), float64(d)))
	}
	for _, d := range handlerSelf {
		add("server.self", d)
	}
	var transport counter
	for req, h := range rp.handler {
		if svc, ok := service[req]; ok {
			transport.add(float64(svc-h) / float64(time.Microsecond))
		}
	}
	v := map[string]float64{
		"qec.expand_self_us":  median(self),
		"replay.coverage":     median(coverage),
		"server.transport_us": transport.mean(),
	}
	for _, name := range append(append([]string{}, stages...), "qec.expand", "qec.search", "qec.cache_lookup", "server.handler", "server.self") {
		v[name+"_us"] = per[name].mean()
	}
	for _, name := range []string{"search.retrieve", "core.universe", "cluster.kmeans", "core.solve", "qec.cache_lookup", "server.handler"} {
		v[name+".allocs_per_call"] = rp.alloc[name].mean()
	}
	for _, name := range []string{"search.docs_scored", "search.blocks_skipped", "cluster.iterations_per_run", "cluster.restarts_per_run"} {
		v[name] = rp.counts[name].mean()
	}
	return v
}

// traced is the --trace 1 run: the set-up layers timed in-process, one
// loopback window for the server-side counters, then the in-process replay
// of that window's first requests.
func (b *bench) traced() (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if b.snap == nil {
		var err error
		if b.snap, err = b.ref.snapshot(); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	srvEng, err := qec.LoadEngine(bytes.NewReader(b.snap), engineOptions()...)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	load := time.Since(t)

	s := newStream(b.model, b.wl, b.seed)
	srv, _, _, err := b.start(1)
	if err != nil {
		return nil, err
	}
	w, err := b.drive(srv, s)
	srv.stop()
	if err != nil {
		return nil, err
	}
	sum, err := summarize(w, b.wl.limit)
	if err != nil {
		return nil, err
	}
	b.steal = sum.steal
	d := deltaOf(w.before, w.after)
	b.describe(sum, d)
	values := map[string]float64{
		"dataset.generate_ms":           ms(b.ref.generate),
		"qec.build_ms":                  ms(b.ref.build),
		"index.load_ms":                 ms(load),
		"cache.hit_ratio":               d.hitRatio(),
		"cache.computations_per_expand": ratio(float64(d.computations), float64(d.expands)),
		"cache.coalesced":               float64(d.coalesced),
		"server.queue_max":              float64(d.queueMax),
		"degrade.transitions":           float64(d.transitions),
		"degrade.shed":                  float64(d.shed),
		"host.steal_share":              sum.steal,
		"trace.expand_p50_ms":           sum.values["expand_p50_ms"],
		"guard.degraded_share":          sum.degradedShare(),
		"guard.error_share":             sum.errorShare(),
	}
	checkErr := selfCheck(b.wl, d, sum)

	rp, err := newReplayer(b.ref.eng, srvEng, b.snap)
	if err != nil {
		return nil, err
	}
	n, replayErr := b.replay(rp, s, w)
	values["replay.requests"] = float64(n)
	if replayErr == nil {
		for k, v := range rp.layerStats(serviceTimes(w)) {
			values[k] = v
		}
	}
	if err := rp.tr.write(filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if replayErr != nil {
		return &result{Attempted: sum.attempted, Failed: sum.failed, Metrics: map[string]metricValue{}}, fmt.Errorf("replay: %w", replayErr)
	}
	metrics, err := fill(perLayer, values)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: checkErr == nil, Attempted: sum.attempted, Failed: sum.failed, Metrics: metrics}
	return res, checkErr
}

// replay runs the window's first requests in-process: the chain pass with
// its spans, then the handler pass. It returns how many requests it checked.
func (b *bench) replay(rp *replayer, s *stream, w *window) (int, error) {
	if err := rp.warm(s.warm()); err != nil {
		return 0, err
	}
	n := min(len(w.recs), replayCap)
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = w.recs[i].req
	}
	var a allocs
	for pos, r := range reqs {
		var ap *allocs
		if pos < allocSample {
			ap = &a
		}
		if err := rp.request(r, pos, ap); err != nil {
			return pos, fmt.Errorf("request %d %s: %w", r.id, r.body, err)
		}
	}
	for pos, r := range reqs {
		var ap *allocs
		if pos < allocSample {
			ap = &a
		}
		if err := rp.handle(r, ap); err != nil {
			return n, err
		}
	}
	return n, nil
}

// serviceTimes maps each request of the window to its time on the wire,
// from send to the whole answer.
func serviceTimes(w *window) map[int]time.Duration {
	out := make(map[int]time.Duration, len(w.recs))
	for i := range w.recs {
		rec := &w.recs[i]
		if rec.ok() {
			out[rec.req.id] = rec.done - rec.sent
		}
	}
	return out
}
