package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/qoslab/amf/internal/server"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload once untraced and once traced, at tiny
// rates on a small catalogue, and checks each emits exactly the metrics
// BENCHMARK.json declares, with their units, and passes its checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six rigs")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			rep, err := runBench(benchConfig{w: w.smallScale(), seed: 3, seconds: 3, traced: traced, dir: t.TempDir(), setups: 1})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct {
				t.Errorf("%s traced=%v: checks failed: %v", w.name, traced, rep.violations)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.name, traced, rep.attempted, rep.failed)
			}
			for name, unit := range want {
				m, ok := rep.metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range rep.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared", w.name, traced, name)
				}
			}
		}
	}
}

// TestRankCheckCatchesCorruption feeds the rank output check a valid
// response and corrupted copies of it.
func TestRankCheckCatchesCorruption(t *testing.T) {
	cands := []int32{3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610}
	valid := server.RankResponse{User: "u1", Metric: "rt", Candidates: len(cands)}
	for i := 0; i < topK; i++ {
		valid.Ranked = append(valid.Ranked, server.RankedService{Service: serviceName(int(cands[i])), Value: float64(i + 1)})
	}
	encode := func(r server.RankResponse) []byte {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := checkRank(encode(valid), cands, 1000); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	corrupt := map[string]func(r *server.RankResponse){
		"out of order": func(r *server.RankResponse) {
			r.Ranked[2].Value, r.Ranked[3].Value = r.Ranked[3].Value, r.Ranked[2].Value
		},
		"not a candidate": func(r *server.RankResponse) { r.Ranked[4].Service = "s4" },
		"duplicate":       func(r *server.RankResponse) { r.Ranked[5].Service = r.Ranked[6].Service },
		"short":           func(r *server.RankResponse) { r.Ranked = r.Ranked[:topK-1] },
		"unknown":         func(r *server.RankResponse) { r.Unknown = []string{"s999"} },
	}
	for name, f := range corrupt {
		r := valid
		r.Ranked = append([]server.RankedService(nil), valid.Ranked...)
		f(&r)
		if err := checkRank(encode(r), cands, 1000); err == nil {
			t.Errorf("%s: corrupted response passed the check", name)
		}
	}
	full := valid
	full.Candidates = 1000
	if err := checkRank(encode(full), nil, 1000); err != nil {
		t.Errorf("valid full-catalogue response rejected: %v", err)
	}
	full.Candidates = 999
	if err := checkRank(encode(full), nil, 1000); err == nil {
		t.Error("full-catalogue rank over part of the catalogue passed the check")
	}
}

// TestDroppedObservesCaught has each leader ack every fourth timed
// observe without applying it, as a write path that loses acked samples
// would, and checks that the run fails its output checks. Every pair the
// workload writes is in the seeded catalogue, so the read-your-writes
// check alone would pass.
func TestDroppedObservesCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a rig")
	}
	var seen atomic.Int64
	drop := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw, err := io.ReadAll(r.Body)
			var req server.ObserveRequest
			// Seeding sends thousands of samples a request; leave it be.
			if r.URL.Path != "/api/v1/observe" || err != nil || json.Unmarshal(raw, &req) != nil ||
				len(req.Observations) > observeBatch || seen.Add(1)%4 != 0 {
				r.Body = io.NopCloser(bytes.NewReader(raw))
				next.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(server.ObserveResponse{Accepted: len(req.Observations)})
		})
	}
	w, err := findWorkload("ingest-durable")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runBench(benchConfig{w: w.smallScale(), seed: 3, seconds: 3, dir: t.TempDir(), setups: 1, wrapLeader: drop})
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct {
		t.Fatal("a run whose leaders dropped acked observes passed its checks")
	}
	if !strings.Contains(strings.Join(rep.violations, "; "), "durable WAL") {
		t.Errorf("violations do not name the lost samples: %v", rep.violations)
	}
}
