package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	qec "repro"
	"repro/internal/server"
)

// endpoint is the API a request goes to.
type endpoint uint8

const (
	epSearch endpoint = iota
	epExpand
)

func (e endpoint) path() string {
	if e == epSearch {
		return "/search"
	}
	return "/expand"
}

// Wire parameters: expand requests consider the top 30 results, the paper's
// setting for large result sets; searches return a first page of 10.
const (
	expandTopK = 30
	searchTopK = 10
	hotKeys    = 64
	// pebcEvery sends every pebcEvery-th cold expansion to PEBC instead of
	// ISKR: a fixed share, so the solver mix cannot drift with the seed.
	pebcEvery = 5
	// checkEvery is the sampling rate of the output check; checkCap caps
	// the checked answers per endpoint.
	checkEvery = 64
	checkCap   = 64
)

// request is one generated API call.
type request struct {
	id     int // position in the stream, from 0
	ep     endpoint
	query  string
	k      int
	topK   int
	method string // "" is ISKR
	// check selects the answer for the output check.
	check bool
	body  []byte
}

// options maps the request to the engine options the server derives from
// it, through the server's own wire conversion.
func (r *request) options() qec.ExpandOptions {
	wire := server.ExpandRequest{Query: r.query, K: r.k, TopK: r.topK, Method: r.method}
	opts, err := wire.Options(qec.QualityExact)
	if err != nil {
		panic(fmt.Sprintf("generated request has invalid options: %v", err))
	}
	return opts
}

// key identifies a distinct expansion: two requests with one key share a
// cache entry.
func (r *request) key() string {
	return fmt.Sprintf("%s|k=%d|top=%d|m=%s", r.query, r.k, r.topK, r.method)
}

func newSearch(query string) *request {
	r := &request{ep: epSearch, query: query, topK: searchTopK}
	r.body, _ = json.Marshal(server.SearchRequest{Query: query, TopK: searchTopK})
	return r
}

func newExpand(query string, k int, method string) *request {
	r := &request{ep: epExpand, query: query, k: k, topK: expandTopK, method: method}
	r.body, _ = json.Marshal(server.ExpandRequest{Query: query, K: k, TopK: expandTopK, Method: method})
	return r
}

// coldGen draws expansions whose cache keys were never drawn before: a
// topic query plus two distinct terms that co-occur in at least minResults
// of the topic's documents, with k from 2 to 6. One extra term would give
// only about 5k distinct keys, fewer than a serial run sends.
type coldGen struct {
	model topicModel
	rng   *rand.Rand
	used  map[string]bool
	n     int
}

// maxDraws bounds the draws for one fresh key. The corpus has about 59k
// cold keys; a stream that has used most of them fails rather than spin.
const maxDraws = 1 << 20

// next returns a fresh cold expansion, or nil once fresh keys have become
// too rare to find.
func (g *coldGen) next() *request {
	for draw := 0; draw < maxDraws; draw++ {
		tp := &g.model[g.rng.Intn(len(g.model))]
		if len(tp.terms) < 2 {
			continue
		}
		i, j := g.rng.Intn(len(tp.terms)), g.rng.Intn(len(tp.terms))
		k := 2 + g.rng.Intn(5)
		if i == j || tp.cooccur(i, j) < minResults {
			continue
		}
		if i > j {
			i, j = j, i
		}
		method := ""
		if g.n%pebcEvery == pebcEvery-1 {
			method = "pebc"
		}
		r := newExpand(tp.query+" "+tp.terms[i]+" "+tp.terms[j], k, method)
		if g.used[r.key()] {
			continue
		}
		g.used[r.key()] = true
		g.n++
		return r
	}
	return nil
}

// hotKey is one (query, k) pair of the hot set.
type hotKey struct {
	query string
	k     int
}

// hotSetSeed fixes the hot set: distinct (query, k) pairs, half bare topic
// queries and half a topic query plus one co-occurring term, in popularity
// order.
const hotSetSeed = 64

func hotSet(model topicModel) []hotKey {
	rng := rand.New(rand.NewSource(hotSetSeed))
	var hot []hotKey
	seen := map[hotKey]bool{}
	for len(hot) < hotKeys {
		tp := &model[rng.Intn(len(model))]
		q := tp.query
		if rng.Intn(2) == 1 && len(tp.terms) > 0 {
			q += " " + tp.terms[rng.Intn(len(tp.terms))]
		}
		hk := hotKey{query: q, k: 2 + rng.Intn(5)}
		if !seen[hk] {
			seen[hk] = true
			hot = append(hot, hk)
		}
	}
	return hot
}

// stream is a workload's seeded request sequence. The same seed gives the
// same sequence; the program under test sees only the generated requests.
type stream struct {
	wl      *workload
	rng     *rand.Rand
	checks  *rand.Rand
	cold    *coldGen
	hot     []hotKey
	zipf    *rand.Zipf
	n       int
	checked [2]int
}

func newStream(model topicModel, wl *workload, seed int64) *stream {
	s := &stream{
		wl:     wl,
		rng:    rand.New(rand.NewSource(seed)),
		checks: rand.New(rand.NewSource(seed*7919 + 1)),
		cold: &coldGen{
			model: model,
			rng:   rand.New(rand.NewSource(seed*7919 + 2)),
			used:  map[string]bool{},
		},
	}
	// The hot set and its popularity order are the same for every seed, so
	// the mix of hot expansions is too; the seed draws the sequence.
	s.hot = hotSet(model)
	s.zipf = rand.NewZipf(s.rng, 1.1, 1, hotKeys-1)
	return s
}

// warm returns one expansion per hot key, sent before timing so that every
// hot expansion in the timed window is a cache hit. Workloads without hot
// expansions warm nothing.
func (s *stream) warm() []*request {
	if !s.wl.hot {
		return nil
	}
	out := make([]*request, len(s.hot))
	for i, hk := range s.hot {
		out[i] = newExpand(hk.query, hk.k, "")
	}
	return out
}

// errColdExhausted reports a stream that ran out of never-seen cold keys.
var errColdExhausted = errors.New("the corpus has no fresh cold expansion keys left for this stream")

// next returns the stream's next request, or nil when the stream is
// exhausted (see errColdExhausted).
func (s *stream) next() *request {
	var r *request
	switch s.wl.name {
	case "cold-serial":
		// Every third request searches a zipf-popular hot query, so the
		// workload reports search latency too, with enough samples for a
		// p99; searches take under a tenth of its time.
		if s.n%3 == 2 {
			r = newSearch(s.hot[s.zipf.Uint64()].query)
		} else {
			r = s.cold.next()
		}
	default: // hot-serial
		hk := s.hot[s.zipf.Uint64()]
		if s.n%2 == 0 {
			r = newSearch(hk.query)
		} else {
			r = newExpand(hk.query, hk.k, "")
		}
	}
	if r == nil {
		return nil
	}
	r.id = s.n
	s.n++
	if s.checks.Intn(checkEvery) == 0 && s.checked[r.ep] < checkCap {
		r.check = true
		s.checked[r.ep]++
	}
	return r
}
