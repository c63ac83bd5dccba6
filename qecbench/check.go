package main

import (
	"encoding/json"
	"fmt"

	qec "repro"
	"repro/internal/server"
)

// checkAnswers compares every sampled T0 answer of the timed window with the
// reference engine: an /expand answer must carry the same score, queries and
// clusters as qec.Engine.Expand, a /search answer the same hits as
// qec.Engine.Search. It returns how many answers it compared.
func checkAnswers(ref *qec.Engine, recs []record) (int, error) {
	n := 0
	for i := range recs {
		rec := &recs[i]
		if rec.body == nil || rec.tier != tierFull(rec.req.ep) {
			continue
		}
		var err error
		if rec.req.ep == epExpand {
			err = checkExpand(ref, rec.req, rec.body)
		} else {
			err = checkSearch(ref, rec.req, rec.body)
		}
		if err != nil {
			return n, fmt.Errorf("request %d %s %s: %w", rec.req.id, rec.req.ep.path(), rec.req.body, err)
		}
		n++
	}
	return n, nil
}

// tierFull is the X-Qec-Tier header of an undegraded answer: T0 for
// /expand; /search is never degraded and carries none.
func tierFull(ep endpoint) string {
	if ep == epExpand {
		return "T0"
	}
	return ""
}

func checkExpand(ref *qec.Engine, r *request, body []byte) error {
	var got server.ExpandResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	want, err := ref.Expand(r.query, r.options())
	if err != nil {
		return fmt.Errorf("reference expansion: %w", err)
	}
	return sameExpansion(want, wireExpansion(&got))
}

// wireExpansion converts an /expand answer back to the engine's form.
func wireExpansion(w *server.ExpandResponse) *qec.Expansion {
	out := &qec.Expansion{Original: w.Original, Score: w.Score}
	for _, q := range w.Queries {
		out.Queries = append(out.Queries, qec.ExpandedQuery{
			Terms: q.Terms, Cluster: q.Cluster, Precision: q.Precision, Recall: q.Recall, F: q.F,
		})
	}
	for _, cl := range w.Clusters {
		ids := make([]qec.DocID, len(cl))
		for i, id := range cl {
			ids[i] = qec.DocID(id)
		}
		out.Clusters = append(out.Clusters, ids)
	}
	return out
}

// sameExpansion reports the first difference between two expansions, with
// floats compared bit for bit.
func sameExpansion(want, got *qec.Expansion) error {
	if want.Score != got.Score {
		return fmt.Errorf("score %v, want %v", got.Score, want.Score)
	}
	if !sameStrings(want.Original, got.Original) {
		return fmt.Errorf("original %v, want %v", got.Original, want.Original)
	}
	if len(want.Queries) != len(got.Queries) {
		return fmt.Errorf("%d queries, want %d", len(got.Queries), len(want.Queries))
	}
	for i, w := range want.Queries {
		g := got.Queries[i]
		if !sameStrings(w.Terms, g.Terms) || w.Cluster != g.Cluster ||
			w.Precision != g.Precision || w.Recall != g.Recall || w.F != g.F {
			return fmt.Errorf("query %d is %+v, want %+v", i, g, w)
		}
	}
	if len(want.Clusters) != len(got.Clusters) {
		return fmt.Errorf("%d clusters, want %d", len(got.Clusters), len(want.Clusters))
	}
	for i, w := range want.Clusters {
		g := got.Clusters[i]
		if len(w) != len(g) {
			return fmt.Errorf("cluster %d has %d documents, want %d", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				return fmt.Errorf("cluster %d differs at %d: %d, want %d", i, j, g[j], w[j])
			}
		}
	}
	return nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkSearch(ref *qec.Engine, r *request, body []byte) error {
	var got server.SearchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	want := ref.Search(r.query, r.topK)
	return sameHits(want, got.Hits)
}

func sameHits(want []qec.Result, got []server.SearchHit) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i, w := range want {
		if int(w.Doc) != got[i].ID || w.Score != got[i].Score {
			return fmt.Errorf("hit %d is (%d, %v), want (%d, %v)", i, got[i].ID, got[i].Score, w.Doc, w.Score)
		}
	}
	return nil
}
