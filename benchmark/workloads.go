package main

import (
	"encoding/json"
	"fmt"

	"predfilter/workload"
)

// cycleParts is how many equal parts a workload's document cycle is
// divided into for timing: a mark is taken at every part, and a rate sample
// spans cycleParts consecutive parts, a whole cycle, starting at any mark.
const cycleParts = 4

// churnPoolSize is how many distinct expressions the churn connection
// cycles through.
const churnPoolSize = 64

// batchSize is the number of documents per POST /publish/batch request.
const batchSize = 32

// spec is one workload: its inputs, how it is served and how it is driven.
// pacedRate is frozen here (≈40 % of the sat rate measured on the 2-core
// host the first baseline was taken on), so that paced latency is taken at
// the same offered load on every commit.
type spec struct {
	name    string
	schema  func() workload.Schema
	exprs   int
	filters int // attribute filters per expression
	// docs is the size of the document set the workload cycles through, a
	// multiple of cycleParts requests. Any docs consecutive publishes cover
	// each document once, so rates are taken over whole cycles and every
	// sample has the same document mix. The filter workloads have more,
	// because a few of their documents cost ten times the median and the
	// sum over 500 moved 7 % between seeds.
	docs      int
	batch     bool    // POST /publish/batch, batchSize documents per request
	conns     int     // publish connections in the closed loop (≤ nproc)
	churn     bool    // -state, plus one connection of subscribe→unsubscribe pairs, one per churnEveryDocs documents
	shards    int     // >0: xfserve -cluster over this many shard processes
	pacedRate float64 // requests per second in the open loop
	// extra marks a workload the human report and the smoke test run but
	// BENCHMARK.json does not list, so the PR driver neither runs nor
	// gates it (see README, "Scale").
	extra bool
}

// churnEveryDocs is how many published documents pass between two
// subscribe→unsubscribe pairs of the churn connection: about 20 pairs per
// second at the sat rate of the host the first baseline was taken on.
const churnEveryDocs = 50

// The expression counts are the largest whose HTTP subscribe set-up, done
// three times per run, fits the driver's time cap (see README, "Scale").
var specs = []spec{
	{name: "nitf5k_single", schema: workload.NITF, exprs: 5000, docs: 500, conns: 2, pacedRate: 900},
	{name: "nitf10k_filters_single", schema: workload.NITF, exprs: 10000, filters: 1, docs: 1000, conns: 2, pacedRate: 110},
	{name: "psd10k_batch", schema: workload.PSD, exprs: 10000, docs: 16 * batchSize, batch: true, conns: 1, pacedRate: 5},
	{name: "nitf5k_churn", schema: workload.NITF, exprs: 5000, docs: 500, conns: 1, churn: true, pacedRate: 350},
	{name: "nitf10k_filters_cluster2", schema: workload.NITF, exprs: 10000, filters: 1, docs: 1000, conns: 2, shards: 2, pacedRate: 80, extra: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload for the tier-1 smoke test.
func (s spec) smoke() spec {
	s.exprs = min(s.exprs, 400)
	return s
}

// docsPerReq is the number of documents one publish request carries.
func (s spec) docsPerReq() int {
	if s.batch {
		return batchSize
	}
	return 1
}

// inputs is everything generated from the seed. The servers see only these.
type inputs struct {
	exprs []string
	docs  [][]byte
	churn []string // expressions added and removed again: by the churn connection, and by the ladder's refreeze probe
	// bodies are the request bodies in publish order: bodies[i] carries
	// documents bodyDocs[i] (indexes into docs). For single publishes
	// bodies is docs itself.
	bodies   [][]byte
	bodyDocs [][]int
}

func generate(s spec, seed int64) (*inputs, error) {
	sch := s.schema()
	ecfg := workload.ExpressionConfig{MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Distinct: true, Filters: s.filters}
	ecfg.Seed = seed
	exprs, err := workload.Expressions(sch, s.exprs, ecfg)
	if err != nil {
		return nil, fmt.Errorf("generate expressions: %w", err)
	}
	in := &inputs{exprs: exprs}
	in.docs = workload.Documents(sch, s.docs, workload.DocumentConfig{Seed: seed + 1})
	ecfg.Seed = seed + 2
	if in.churn, err = workload.Expressions(sch, churnPoolSize, ecfg); err != nil {
		return nil, fmt.Errorf("generate churn pool: %w", err)
	}
	if !s.batch {
		in.bodies = in.docs
		in.bodyDocs = make([][]int, s.docs)
		for i := range in.bodyDocs {
			in.bodyDocs[i] = []int{i}
		}
		return in, nil
	}
	for b := 0; b < s.docs/batchSize; b++ {
		var req struct {
			Documents []string `json:"documents"`
		}
		idx := make([]int, batchSize)
		for i := range idx {
			idx[i] = b*batchSize + i
			req.Documents = append(req.Documents, string(in.docs[idx[i]]))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.bodyDocs = append(in.bodyDocs, idx)
	}
	return in, nil
}
