package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	qec "repro"
	"repro/internal/dataset"
)

// testModel is the topic model of the corpus at scale.
func testModel(t *testing.T, scale int) topicModel {
	t.Helper()
	model := newTopicModel(dataset.Wikipedia(engineSeed+1, scale))
	for _, tp := range model {
		if len(tp.terms) < 2 {
			t.Fatalf("topic %q has %d co-occurring terms", tp.query, len(tp.terms))
		}
	}
	return model
}

// draw returns the first n requests of a fresh stream.
func draw(model topicModel, wl *workload, seed int64, n int) []string {
	s := newStream(model, wl, seed)
	var out []string
	for _, r := range s.warm() {
		out = append(out, "warm "+string(r.body))
	}
	for i := 0; i < n; i++ {
		r := s.next()
		if r == nil {
			return append(out, "exhausted")
		}
		out = append(out, r.ep.path()+" "+string(r.body)+map[bool]string{true: " check"}[r.check])
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	model := testModel(t, 8)
	for i := range workloads {
		wl := &workloads[i]
		a := draw(model, wl, 7, 2000)
		b := draw(model, wl, 7, 2000)
		c := draw(model, wl, 8, 2000)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 7 gave two different streams", wl.name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl.name)
		}
	}
}

// TestColdKeysNeverRepeat pins the cold stream's purpose: a stream whose
// keys repeat turns into cache hits and stops measuring the engine.
func TestColdKeysNeverRepeat(t *testing.T) {
	model := testModel(t, corpusScale)
	wl, _ := workloadByName("cold-serial")
	s := newStream(model, wl, 3)
	seen := map[string]bool{}
	expands := 0
	for i := 0; i < 15000; i++ {
		r := s.next()
		if r == nil {
			t.Fatalf("stream exhausted after %d requests", i)
		}
		if r.ep != epExpand {
			continue
		}
		expands++
		if seen[r.key()] {
			t.Fatalf("request %d repeats key %s", i, r.key())
		}
		seen[r.key()] = true
		if r.topK != expandTopK || r.k < 2 || r.k > 6 {
			t.Fatalf("request %d: k=%d top_k=%d", i, r.k, r.topK)
		}
	}
	if expands < 9000 {
		t.Fatalf("%d expansions in 15000 requests", expands)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{19, 0.50, 10, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBucketedPercentileUsesOnlyFullGroups(t *testing.T) {
	dur := 10 * time.Second
	spread := func(n int) []timed {
		xs := make([]timed, n)
		for i := range xs {
			xs[i] = timed{at: dur * time.Duration(i) / time.Duration(n), ms: float64(i%100 + 1)}
		}
		return xs
	}
	if _, ok := bucketedPercentile(spread(999), 0.99, dur); ok {
		t.Error("p99 reported from 999 samples")
	}
	if v, ok := bucketedPercentile(spread(3000), 0.99, dur); !ok || v != 99 {
		t.Errorf("p99 of 3000 samples = %v, %v; want 99, true", v, ok)
	}
	// A burst confined to one tenth of the window moves the pooled p99 but
	// not the median over groups.
	xs := spread(20000)
	for i := range xs[:2000] {
		xs[i].ms = 1000
	}
	if v, _ := bucketedPercentile(xs, 0.99, dur); v != 99 {
		t.Errorf("p99 with a burst in one group = %v, want 99", v)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the metric names and units the command prints, and
// that BENCHMARK.json at the repository root lists exactly them.
func TestMetricNames(t *testing.T) {
	specs := map[string]string{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(s.name) || !unitName.MatchString(s.unit) {
			t.Errorf("bad metric %q unit %q", s.name, s.unit)
		}
		if _, dup := specs[s.name]; dup {
			t.Errorf("metric %q listed twice", s.name)
		}
		specs[s.name] = s.unit
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range append(cfg.EndToEnd, cfg.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	if len(cfg.EndToEnd) != len(endToEnd) || len(listed) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d metrics (%d end-to-end), the command prints %d (%d)",
			len(listed), len(cfg.EndToEnd), len(specs), len(endToEnd))
	}
	for name, unit := range specs {
		if listed[name] != unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, printed unit %q", name, listed[name], unit)
		}
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v", names)
	}
}

func TestAnswerScore(t *testing.T) {
	body := []byte(`{"original":["java"],"queries":[{"terms":["java"],"cluster":0,"precision":1,"recall":0.5,"f":0.6}],"clusters":[[1]],"score":0.625,"took_ms":1.5}`)
	if got := answerScore(body); got != 0.625 {
		t.Errorf("score = %v, want 0.625", got)
	}
	if got := answerScore([]byte(`{"error":"no results"}`)); !math.IsNaN(got) {
		t.Errorf("score of an answer without one = %v, want NaN", got)
	}
}

// TestReplayMatchesEngine replays a short stream of every workload through
// the chain of public calls and the in-process handler: the chain must
// reproduce the engine's answers, and only workloads with cold expansions
// may reach k-means.
func TestReplayMatchesEngine(t *testing.T) {
	ref := buildReference(8)
	model := newTopicModel(ref.ds)
	snap, err := ref.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		wl := &workloads[i]
		srvEng, err := qec.LoadEngine(bytes.NewReader(snap), engineOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := newReplayer(buildReference(8).eng, srvEng, snap)
		if err != nil {
			t.Fatal(err)
		}
		s := newStream(model, wl, 5)
		if err := rp.warm(s.warm()); err != nil {
			t.Fatal(err)
		}
		var a allocs
		service := map[int]time.Duration{}
		for pos := 0; pos < 60; pos++ {
			r := s.next()
			ap := &a
			if pos >= 10 {
				ap = nil
			}
			if err := rp.request(r, pos, ap); err != nil {
				t.Fatalf("%s request %d: %v", wl.name, pos, err)
			}
			if err := rp.handle(r, ap); err != nil {
				t.Fatalf("%s request %d: %v", wl.name, pos, err)
			}
			service[r.id] = time.Millisecond
		}
		v := rp.layerStats(service)
		if v["server.handler_us"] <= 0 || v["search.parse_us"] <= 0 {
			t.Errorf("%s: handler %v µs, parse %v µs", wl.name, v["server.handler_us"], v["search.parse_us"])
		}
		cold := v["cluster.kmeans_us"] > 0
		if cold != (wl.name != "hot-serial") {
			t.Errorf("%s: k-means ran %v µs per call", wl.name, v["cluster.kmeans_us"])
		}
	}
}

// TestFailedRequestFailsTheRun drives a fake server that answers every
// hundredth request with a 500, as qec-serve does for a failed expansion
// (tier header included): the window's self-check must fail, while the same
// window without failures passes.
func TestFailedRequestFailsTheRun(t *testing.T) {
	wl, _ := workloadByName("hot-serial")
	model := testModel(t, 8)
	for _, failEvery := range []int32{0, 100} {
		var n atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/expand" {
				w.Header().Set("X-Qec-Tier", "T0")
			}
			if failEvery > 0 && n.Add(1)%failEvery == 0 {
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = w.Write([]byte(`{"error":"injected"}`))
				return
			}
			if r.URL.Path == "/expand" {
				_, _ = w.Write([]byte(`{"original":["java"],"queries":[],"clusters":[],"score":0.5}`))
				return
			}
			_, _ = w.Write([]byte(`{"count":0,"hits":[]}`))
		}))
		hc := newConn(srv.Listener.Addr().String(), nil)
		const dur = 2 * time.Second
		t0 := time.Now()
		sp := startSampler(os.Getpid(), t0, dur, buckets)
		recs, err := closedLoop(hc, newStream(model, wl, 1), t0, dur)
		samples, serr := sp.wait()
		hc.close()
		srv.Close()
		if err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		sum, err := summarize(&window{recs: recs, dur: dur, samples: samples}, wl.limit)
		if err != nil {
			t.Fatal(err)
		}
		err = selfCheck(wl, statsDelta{hits: 1}, sum) // every expansion a cache hit
		if failEvery == 0 && err != nil {
			t.Errorf("a window without failures fails its self-check: %v", err)
		}
		if failEvery > 0 && (err == nil || sum.failed == 0) {
			t.Errorf("%d of %d requests failed, self-check error %v", sum.failed, sum.attempted, err)
		}
	}
}
