package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/server"
)

// metricSpec names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json: every run prints every end-to-end
// metric, and every traced run every per-layer metric.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"expand_p50_ms", "ms"},
	{"expand_p99_ms", "ms"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"expansion_score_mean", "score"},
	{"server_cpu_ms_per_req", "ms"},
	{"rss_mib", "MiB"},
}

var perLayer = []metricSpec{
	{"dataset.generate_ms", "ms"},
	{"qec.build_ms", "ms"},
	{"index.load_ms", "ms"},
	{"search.parse_us", "us"},
	{"search.retrieve_us", "us"},
	{"search.docs_scored", "count"},
	{"search.blocks_skipped", "count"},
	{"core.universe_us", "us"},
	{"core.problems_us", "us"},
	{"core.solve_us", "us"},
	{"cluster.kmeans_us", "us"},
	{"cluster.iterations_per_run", "count"},
	{"cluster.restarts_per_run", "count"},
	{"qec.expand_us", "us"},
	{"qec.expand_self_us", "us"},
	{"qec.cache_lookup_us", "us"},
	{"qec.search_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.computations_per_expand", "ratio"},
	{"cache.coalesced", "count"},
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.transport_us", "us"},
	{"server.queue_max", "count"},
	{"search.retrieve.allocs_per_call", "count"},
	{"core.universe.allocs_per_call", "count"},
	{"cluster.kmeans.allocs_per_call", "count"},
	{"core.solve.allocs_per_call", "count"},
	{"qec.cache_lookup.allocs_per_call", "count"},
	{"server.handler.allocs_per_call", "count"},
	{"degrade.transitions", "count"},
	{"degrade.shed", "count"},
	{"host.steal_share", "ratio"},
	{"trace.expand_p50_ms", "ms"},
	{"replay.coverage", "ratio"},
	{"replay.requests", "count"},
	{"guard.degraded_share", "ratio"},
	{"guard.error_share", "ratio"},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns values into the result's metrics, in the units of specs. Every
// spec must have a finite value.
func fill(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}

// window is what the client saw of one timed window, plus the server-side
// readings taken around it.
type window struct {
	recs          []record
	dur           time.Duration
	samples       []sample
	before, after *server.StatsResponse
	rssMiB        float64
}

// buckets is how many equal parts a window is cut into. Every time and rate
// is reported as the median over the parts, so a burst of host noise in a
// few of them does not move it.
const buckets = 10

// timed is one latency sample with its send time.
type timed struct {
	at time.Duration
	ms float64
}

// bucketedPercentile returns the median over equal time groups of the
// window of each group's p-quantile. It uses the most groups, up to
// buckets and odd when more than one, for which every group's quantile has
// minBeyond samples above it; false means even the whole window has too few.
func bucketedPercentile(xs []timed, p float64, dur time.Duration) (float64, bool) {
	for g := buckets; g >= 1; g-- {
		if g > 1 && g%2 == 0 {
			continue
		}
		groups := make([][]float64, g)
		for _, x := range xs {
			i := max(0, min(g-1, int(int64(g)*int64(x.at)/int64(dur))))
			groups[i] = append(groups[i], x.ms)
		}
		vals := make([]float64, 0, g)
		for _, grp := range groups {
			sort.Float64s(grp)
			v, ok := percentile(grp, p)
			if !ok {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) == g {
			return median(vals), true
		}
	}
	return 0, false
}

// summary is the client-side digest of a window.
type summary struct {
	attempted, succeeded, failed int
	expandAnswers, degraded      int
	values                       map[string]float64
	steal                        float64
	bucketSteal                  []float64
	firstFailure                 string
}

// summarize derives the end-to-end metrics of a window. limit is the
// workload's goodput latency limit. A failed request counts as missing every
// limit: it sorts above every answer in the latency percentiles.
func summarize(w *window, limit time.Duration) (*summary, error) {
	s := &summary{values: map[string]float64{}}
	lat := [2][]timed{}
	var scores []float64
	good := make([]float64, buckets)
	done := make([]float64, buckets)
	failedMS := ms(w.dur) // above every limit
	for i := range w.recs {
		rec := &w.recs[i]
		s.attempted++
		ok := rec.ok()
		l := ms(rec.latency())
		if !ok {
			s.failed++
			l = math.Inf(1)
			if s.firstFailure == "" {
				s.firstFailure = fmt.Sprintf("%s %s: %s", rec.req.ep.path(), rec.req.body, statusText(rec))
			}
		} else {
			s.succeeded++
		}
		lat[rec.req.ep] = append(lat[rec.req.ep], timed{at: rec.sent, ms: l})
		if rec.req.ep == epExpand && rec.err == nil {
			s.expandAnswers++
			if rec.tier != "T0" {
				s.degraded++
			}
		}
		if ok && rec.req.ep == epExpand && rec.tier == "T0" {
			scores = append(scores, rec.score)
		}
		b := max(0, min(buckets-1, int(int64(buckets)*int64(rec.done)/int64(w.dur))))
		done[b]++
		if ok && rec.tier == tierFull(rec.req.ep) && rec.latency() <= limit {
			good[b]++
		}
	}
	if s.attempted == 0 {
		return nil, fmt.Errorf("no request completed in the window")
	}
	names := [2]string{"search", "expand"}
	for ep, xs := range lat {
		p50, ok50 := bucketedPercentile(xs, 0.50, w.dur)
		p99, ok99 := bucketedPercentile(xs, 0.99, w.dur)
		if !ok50 || !ok99 {
			return nil, fmt.Errorf("%d %s samples: too few for a p99 with %d beyond it", len(xs), names[ep], minBeyond)
		}
		s.values[names[ep]+"_p50_ms"] = math.Min(p50, failedMS)
		s.values[names[ep]+"_p99_ms"] = math.Min(p99, failedMS)
	}

	if len(w.samples) != buckets+1 {
		return nil, fmt.Errorf("%d CPU samples, want %d", len(w.samples), buckets+1)
	}
	var rates, cpu []float64
	for b := 0; b < buckets; b++ {
		a, z := w.samples[b], w.samples[b+1]
		rates = append(rates, good[b]/(z.at-a.at).Seconds())
		cpu = append(cpu, ratio(ms(z.cpu-a.cpu), done[b]))
		s.bucketSteal = append(s.bucketSteal, stealShare(a.host, z.host))
	}
	s.values["goodput_rps"] = median(rates)
	s.values["server_cpu_ms_per_req"] = median(cpu)
	s.values["expansion_score_mean"] = mean(scores)
	s.values["rss_mib"] = w.rssMiB
	s.steal = stealShare(w.samples[0].host, w.samples[buckets].host)
	return s, nil
}

func (s *summary) degradedShare() float64 {
	return ratio(float64(s.degraded), float64(s.expandAnswers))
}

func (s *summary) errorShare() float64 {
	return ratio(float64(s.failed), float64(s.attempted))
}

// statsDelta is the change of the server's /stats counters over a window.
type statsDelta struct {
	hits, misses, computations, coalesced int64
	transitions, shed                     int64
	expands                               int64
	queueMax                              int64
}

func deltaOf(before, after *server.StatsResponse) statsDelta {
	d := statsDelta{
		hits:         after.Cache.Hits - before.Cache.Hits,
		misses:       after.Cache.Misses - before.Cache.Misses,
		computations: after.Cache.Computations - before.Cache.Computations,
		coalesced:    after.Cache.Coalesced - before.Cache.Coalesced,
		expands:      after.Requests.Expand - before.Requests.Expand,
		queueMax:     after.Rates.QueueMax1M,
	}
	if after.Degrade != nil && before.Degrade != nil {
		d.transitions = after.Degrade.Transitions - before.Degrade.Transitions
		d.shed = after.Degrade.Shed - before.Degrade.Shed
	}
	return d
}

func (d statsDelta) hitRatio() float64 {
	return ratio(float64(d.hits), float64(d.hits+d.misses))
}

// selfCheck fails a window whose workload did not run as designed: a failed
// request, a cold stream that hit the cache, a hot stream that missed it, or
// any movement of the degradation ladder.
func selfCheck(wl *workload, d statsDelta, s *summary) error {
	switch {
	case s.failed != 0:
		return fmt.Errorf("%d of %d requests failed, the first: %s", s.failed, s.attempted, s.firstFailure)
	case wl.maxHitRatio >= 0 && d.hitRatio() > wl.maxHitRatio:
		return fmt.Errorf("cache hit ratio %.4f above %.2f: the cold stream repeats keys", d.hitRatio(), wl.maxHitRatio)
	case d.hitRatio() < wl.minHitRatio:
		return fmt.Errorf("cache hit ratio %.4f below %.2f: the hot set is not cached", d.hitRatio(), wl.minHitRatio)
	case d.transitions != 0:
		return fmt.Errorf("degradation ladder moved %d times in the window", d.transitions)
	case s.degraded != 0:
		return fmt.Errorf("%d of %d expansions were degraded", s.degraded, s.expandAnswers)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusText names a failed record for the summary.
func statusText(rec *record) string {
	if rec.err != nil {
		return rec.err.Error()
	}
	return http.StatusText(rec.status)
}
