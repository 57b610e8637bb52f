package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"predfilter/workload"
)

// BenchmarkPublishBatchPSD is the benchmark's psd10k_batch workload in
// process: 10 000 PSD expressions, 512 documents of ~8 300 matches each,
// 32 per POST /publish/batch through ServeHTTP, QueueLimit 16. It is the
// "in-process handler, ms per request" figure of CHANGES.md and DESIGN.md
// §12, and the place to take a CPU profile of the result path.
func BenchmarkPublishBatchPSD(b *testing.B) {
	sch := workload.PSD()
	ecfg := workload.ExpressionConfig{MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Distinct: true}
	ecfg.Seed = 1
	exprs, err := workload.Expressions(sch, 10000, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := workload.Documents(sch, 512, workload.DocumentConfig{Seed: 2})
	srv := New(Config{QueueLimit: 16})
	if _, err := srv.Preload(exprs); err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for len(docs) > 0 {
		var req struct {
			Documents []string `json:"documents"`
		}
		for _, d := range docs[:32] {
			req.Documents = append(req.Documents, string(d))
		}
		docs = docs[32:]
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	post := func(i int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish/batch", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	for i := range bodies { // fill the queues and the path cache
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}
