package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	qec "repro"
	"repro/internal/dataset"
	"repro/internal/document"
)

// The corpus every workload serves. qec-serve runs with its shipped defaults
// apart from -dataset wikipedia -scale corpusScale, so the reference engine
// mirrors those defaults: -seed 2011 seeds clustering and PEBC, the generator
// runs at seed+1 (cmd/qec-serve's loadEngine), and the expansion cache holds
// 1024 entries.
const (
	corpusScale  = 64
	engineSeed   = 2011
	cacheEntries = 1024
)

// reference is the in-process twin of the server's corpus: the generated
// dataset (for the request generator) and an engine built from it exactly as
// qec-serve builds its own (for the output check and the traced replay).
type reference struct {
	ds  *dataset.Dataset
	eng *qec.Engine
	// generate and build time dataset.Wikipedia and the AddText loop plus
	// Engine.Build.
	generate, build time.Duration
}

func engineOptions() []qec.Option {
	return []qec.Option{qec.WithSeed(engineSeed), qec.WithExpansionCache(cacheEntries)}
}

// buildReference generates the corpus at scale and indexes it.
func buildReference(scale int) *reference {
	t0 := time.Now()
	d := dataset.Wikipedia(engineSeed+1, scale)
	t1 := time.Now()
	eng := qec.NewEngine(engineOptions()...)
	for _, doc := range d.Corpus.Docs() {
		if doc.Kind == document.Structured {
			eng.AddProduct(doc.Title, doc.Triplets)
		} else {
			eng.AddText(doc.Title, doc.Body)
		}
	}
	eng.Build()
	return &reference{ds: d, eng: eng, generate: t1.Sub(t0), build: time.Since(t1)}
}

// snapshot returns the engine's index snapshot, the bytes qec-serve -index
// loads.
func (r *reference) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.eng.Save(&buf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// minResults is the least number of documents a generated query must match
// inside its topic: expand requests cluster the top 30 results, so every
// query clusters a full top-k set.
const minResults = 30

// topic is one ambiguous query of the corpus with the terms that co-occur in
// its documents.
type topic struct {
	query string
	// terms co-occur with the query in at least minResults of the topic's
	// documents, sorted; sets[i] is the bitset of topic documents holding
	// terms[i].
	terms []string
	sets  [][]uint64
}

// cooccur counts the topic documents holding both terms[i] and terms[j].
func (t *topic) cooccur(i, j int) int {
	n := 0
	for w, a := range t.sets[i] {
		n += bits.OnesCount64(a & t.sets[j][w])
	}
	return n
}

// topicModel lists the corpus topics in Table 1 order.
type topicModel []topic

// newTopicModel derives the co-occurrence model from the dataset's labels
// and index. It depends only on the corpus, never on a workload seed.
func newTopicModel(d *dataset.Dataset) topicModel {
	idx := d.Index
	var model topicModel
	for _, q := range d.Queries {
		var docs []document.DocID
		for id, label := range d.Labels {
			if strings.HasPrefix(label, q.Raw+"/") {
				docs = append(docs, id)
			}
		}
		sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
		queryWords := map[string]bool{}
		for _, w := range strings.Fields(q.Raw) {
			queryWords[w] = true
		}
		words := (len(docs) + 63) / 64
		byTerm := map[string][]uint64{}
		for pos, id := range docs {
			for _, term := range idx.DocTerms(id) {
				if queryWords[term] {
					continue
				}
				set, ok := byTerm[term]
				if !ok {
					set = make([]uint64, words)
					byTerm[term] = set
				}
				set[pos/64] |= 1 << (pos % 64)
			}
		}
		tp := topic{query: q.Raw}
		for term, set := range byTerm {
			n := 0
			for _, w := range set {
				n += bits.OnesCount64(w)
			}
			if n >= minResults {
				tp.terms = append(tp.terms, term)
			}
		}
		sort.Strings(tp.terms)
		for _, term := range tp.terms {
			tp.sets = append(tp.sets, byTerm[term])
		}
		model = append(model, tp)
	}
	return model
}
