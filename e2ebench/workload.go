package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/server"
)

// op is one kind of client request.
type op int

const (
	opRank    op = iota // candidate-list rank, top-10
	opRankAll           // full-catalogue rank, top-10
	opPredict           // single predict
	opObserve           // durable observe batch
	numOps
)

var opNames = [numOps]string{"rank", "rankall", "predict", "observe"}

// opLimit is each op's p99 latency limit. A step of the rate ladder
// passes only while every op it sends stays within its limit.
var opLimit = [numOps]time.Duration{
	opRank:    40 * time.Millisecond,
	opRankAll: 40 * time.Millisecond,
	opPredict: 20 * time.Millisecond,
	opObserve: 100 * time.Millisecond,
}

const (
	topK          = 10
	observeBatch  = 16
	minCandidates = 500
	maxCandidates = 4000
)

// workloadSpec is one traffic mix over one catalogue. Rates are fixed
// absolute values, never calibrated against the code under test, so a
// change that makes the system slower cannot also lower its own load.
type workloadSpec struct {
	name     string
	users    int // catalogue users present before timing
	services int // catalogue services present before timing
	// seedPerService is how many users of each shard group observe each
	// service during seeding, so every group's catalogue holds every
	// service and full-catalogue ranks scan all of it.
	seedPerService int
	mix            [numOps]float64
	// newEntityShare is the share of observe batches whose first sample
	// registers a user or service the catalogue has not seen.
	newEntityShare float64
	nominal        float64   // offered req/s of the nominal step
	ladder         []float64 // offered req/s of the steps after it
}

func (w workloadSpec) sends(o op) bool { return w.mix[o] > 0 }

// workloads are the benchmark's traffic mixes; README.md records why
// each exists and which layers it loads.
var workloads = []workloadSpec{
	{
		name:           "adapt-rank",
		users:          200,
		services:       12000,
		seedPerService: 2,
		mix:            [numOps]float64{opRank: 0.70, opRankAll: 0.20, opPredict: 0.10},
		nominal:        80,
		ladder:         []float64{240, 275, 310, 345},
	},
	{
		name:           "ingest-durable",
		users:          142,
		services:       4500,
		seedPerService: 4,
		mix:            [numOps]float64{opObserve: 1},
		nominal:        150,
		ladder:         []float64{340, 390, 440, 490},
	},
	{
		name:           "mixed-online",
		users:          200,
		services:       12000,
		seedPerService: 2,
		mix:            [numOps]float64{opObserve: 0.25, opRank: 0.45, opRankAll: 0.10, opPredict: 0.20},
		newEntityShare: 0.01,
		nominal:        70,
		ladder:         []float64{210, 245, 280, 315},
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// smallScale shrinks a workload's catalogue and rates for the smoke
// test; the mix, the ops and the checks stay as they are.
func (w workloadSpec) smallScale() workloadSpec {
	w.users = 24
	w.services = 600
	w.nominal = 40
	w.ladder = []float64{80, 160}
	return w
}

func userName(u int) string    { return "u" + strconv.Itoa(u) }
func serviceName(s int) string { return "s" + strconv.Itoa(s) }

// reserve is how many users and services beyond the catalogue the
// generator defines, for observes that register new entities.
const reserve = 512

func newGenerator(w workloadSpec, seed int64) (*dataset.Generator, error) {
	return dataset.New(dataset.Config{
		Users:    w.users + reserve,
		Services: w.services + reserve,
		Slices:   64,
		Interval: 15 * time.Minute,
		Rank:     8,
		Seed:     seed,
	})
}

// pair is one (user, service) index pair of the generator.
type pair struct{ u, s int32 }

// heldOut reports whether a pair belongs to the accuracy test set: no
// seeding or timed observe ever writes it, so the predictions made for
// it after the run are true out-of-sample estimates.
func heldOut(seed int64, u, s int) bool {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(u)*0xbf58476d1ce4e5b9 ^ uint64(s)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659d5c3
	h ^= h >> 29
	return h%16 == 0
}

// entry is one scheduled request: when it is due (from its phase's
// start) and what it sends.
type entry struct {
	due time.Duration
	op  op
	ref int32 // index into the op's request pool
}

// phase is one constant-rate step of the arrival schedule.
type phase struct {
	rate    float64
	entries []entry
}

// rankBody is one pre-generated rank request and the facts its
// response is checked against.
type rankBody struct {
	user  int
	body  []byte
	cands []int32 // sorted candidate service indices; nil for a full-catalogue rank
}

// observeBody is one pre-generated observe batch.
type observeBody struct {
	body   []byte
	pairs  []pair
	values []float64 // pairs[i] was observed as values[i]
	slice  int
}

// inputs holds everything the load generator sends, built from the
// seed before timing starts.
type inputs struct {
	phases   []phase // phases[0] is the nominal step
	ranks    []rankBody
	rankAlls []rankBody
	predicts []string // request URIs
	observes []observeBody
}

const (
	rankPool    = 384
	rankAllPool = 256
	predictPool = 2048
	// nominalShare is the share of the measured time the nominal step
	// takes; the ladder steps split the rest.
	nominalShare = 0.7
)

func permutation(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i, v := range rng.Perm(n) {
		out[i] = int32(v)
	}
	return out
}

// buildInputs draws the arrival schedule and the request bodies. Each
// phase runs for its share of the measured time: nominalShare for the
// nominal step, the rest split across the ladder. Arrivals come one per
// 1/rate slot, so run-to-run spread comes from the system, not from
// arrival bursts; the seed draws the op sequence, the offsets within
// the slots and every request body. Candidate-list lengths are spread
// evenly over [minCandidates, maxCandidates] for every seed.
func buildInputs(w workloadSpec, gen *dataset.Generator, seed int64, seconds float64, ladder bool, groupOf func(string) int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	rates := []float64{w.nominal}
	lengths := []time.Duration{time.Duration(seconds * float64(time.Second))}
	if ladder {
		lengths[0] = time.Duration(nominalShare * seconds * float64(time.Second))
		step := time.Duration((1 - nominalShare) * seconds * float64(time.Second) / float64(len(w.ladder)))
		for _, r := range w.ladder {
			rates = append(rates, r)
			lengths = append(lengths, step)
		}
	}
	// Each phase holds each op in its exact share, in seeded order, and
	// each op walks its body pool in a seeded permutation: every run at a
	// given length sends the same mix and the same spread of body sizes,
	// so seeds move the order and the contents, not the proportions.
	pools := [numOps][]int32{
		opRank:    permutation(rng, rankPool),
		opRankAll: permutation(rng, rankAllPool),
		opPredict: permutation(rng, predictPool),
	}
	var sent [numOps]int
	for i, r := range rates {
		ph := phase{rate: r}
		n := int(r * lengths[i].Seconds())
		ops := make([]op, 0, n)
		for o := op(0); o < numOps; o++ {
			for k := 0; k < int(w.mix[o]*float64(n)+0.5) && len(ops) < n; k++ {
				ops = append(ops, o)
			}
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		for k, o := range ops {
			ref := int32(sent[o])
			if pool := pools[o]; pool != nil {
				ref = pool[sent[o]%len(pool)]
			}
			sent[o]++
			// One arrival in each 1/r slot, at a seeded offset within it:
			// no bursts, and no lock-step with the replicas' 100 ms replay
			// tick either.
			due := time.Duration((float64(k) + rng.Float64()) / r * float64(time.Second))
			ph.entries = append(ph.entries, entry{due: due, op: o, ref: ref})
		}
		in.phases = append(in.phases, ph)
	}
	observes := sent[opObserve]

	if w.sends(opRank) {
		perm := make([]int32, w.services)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := 0; i < rankPool; i++ {
			n := min(minCandidates+i*(maxCandidates-minCandidates)/(rankPool-1), w.services)
			for j := 0; j < n; j++ { // partial Fisher-Yates: n distinct services
				k := j + rng.Intn(len(perm)-j)
				perm[j], perm[k] = perm[k], perm[j]
			}
			cands := append([]int32(nil), perm[:n]...)
			names := make([]string, n)
			for j, s := range cands {
				names[j] = serviceName(int(s))
			}
			u := rng.Intn(w.users)
			body, _ := json.Marshal(server.RankRequest{User: userName(u), Services: names, TopK: topK})
			sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
			in.ranks = append(in.ranks, rankBody{user: u, body: body, cands: cands})
		}
	}
	if w.sends(opRankAll) {
		for i := 0; i < rankAllPool; i++ {
			u := rng.Intn(w.users)
			body, _ := json.Marshal(server.RankRequest{User: userName(u), TopK: topK})
			in.rankAlls = append(in.rankAlls, rankBody{user: u, body: body})
		}
	}
	if w.sends(opPredict) {
		for i := 0; i < predictPool; i++ {
			in.predicts = append(in.predicts, "/api/v1/predict?user="+userName(rng.Intn(w.users))+
				"&service="+serviceName(rng.Intn(w.services)))
		}
	}
	in.observes = buildObserves(w, gen, rng, seed, observes, groupOf)
	return in
}

// buildObserves draws n observe batches of the sequential QoS stream:
// samples in time-slice order, each batch split evenly across the two
// shard groups so every observe exercises the gateway's split. Pairs
// never repeat until a slice is exhausted, and never include held-out
// pairs.
func buildObserves(w workloadSpec, gen *dataset.Generator, rng *rand.Rand, seed int64, n int, groupOf func(string) int) []observeBody {
	if n == 0 {
		return nil
	}
	var byGroup [2][]int
	for u := 0; u < w.users; u++ {
		g := groupOf(userName(u))
		byGroup[g] = append(byGroup[g], u)
	}
	nextUser, nextService := w.users, w.services
	perSlice := w.users * w.services / 10 // the paper's density: 10% of pairs per slice
	slice, inSlice := 1, 0
	out := make([]observeBody, n)
	for i := range out {
		ob := observeBody{slice: slice}
		obs := make([]server.Observation, 0, observeBatch)
		fresh := rng.Float64() < w.newEntityShare
		for j := 0; j < observeBatch; j++ {
			users := byGroup[j%2]
			if len(users) == 0 {
				users = byGroup[1-j%2]
			}
			var u, s int
			for {
				u = users[rng.Intn(len(users))]
				s = rng.Intn(w.services)
				if !heldOut(seed, u, s) {
					break
				}
			}
			if fresh && j == 0 {
				// Register a new user or service (alternately), drawn
				// from the generator's reserve.
				if i%2 == 0 && nextUser < w.users+reserve {
					u = nextUser
					nextUser++
				} else if nextService < w.services+reserve {
					s = nextService
					nextService++
				}
			}
			v := gen.Value(dataset.ResponseTime, u, s, slice)
			obs = append(obs, server.Observation{User: userName(u), Service: serviceName(s), Value: v})
			ob.pairs = append(ob.pairs, pair{int32(u), int32(s)})
			ob.values = append(ob.values, v)
		}
		ob.body, _ = json.Marshal(server.ObserveRequest{Observations: obs})
		out[i] = ob
		inSlice += observeBatch
		if inSlice >= perSlice && slice < gen.Config().Slices-1 {
			slice++
			inSlice = 0
		}
	}
	return out
}

// seedSamples draws the catalogue's seed observations at slice 0: each
// service is observed by seedPerService users of every shard group.
func seedSamples(w workloadSpec, gen *dataset.Generator, seed int64, groupOf func(string) int) []server.Observation {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var byGroup [2][]int
	for u := 0; u < w.users; u++ {
		g := groupOf(userName(u))
		byGroup[g] = append(byGroup[g], u)
	}
	var out []server.Observation
	// Every user observes at least one service first, so every user is
	// registered even in a catalogue with few services per user.
	for u := 0; u < w.users; u++ {
		s := rng.Intn(w.services)
		for heldOut(seed, u, s) {
			s = rng.Intn(w.services)
		}
		out = append(out, server.Observation{User: userName(u), Service: serviceName(s),
			Value: gen.Value(dataset.ResponseTime, u, s, 0)})
	}
	for s := 0; s < w.services; s++ {
		for _, users := range byGroup {
			if len(users) == 0 {
				continue
			}
			for k := 0; k < w.seedPerService; k++ {
				u := users[rng.Intn(len(users))]
				for heldOut(seed, u, s) {
					u = users[rng.Intn(len(users))]
				}
				out = append(out, server.Observation{User: userName(u), Service: serviceName(s),
					Value: gen.Value(dataset.ResponseTime, u, s, 0)})
			}
		}
	}
	return out
}

// testPairs draws n held-out pairs of catalogue entities for the
// accuracy check.
func testPairs(w workloadSpec, seed int64, n int) []pair {
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	out := make([]pair, 0, n)
	for len(out) < n {
		u, s := rng.Intn(w.users), rng.Intn(w.services)
		if heldOut(seed, u, s) {
			out = append(out, pair{int32(u), int32(s)})
		}
	}
	return out
}
