package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/eval"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// Output checks. Every response the run received is checked after the
// timed phases (so checking costs the measured path nothing); a sample
// of rank queries is replayed against the replicas' own views with
// replay stopped; every acked sample must be in its leader's durable WAL
// and applied on every replica, and every acked pair must predict; and
// the served model must beat the mean predictor on held-out pairs.

func serviceIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "s")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// checkRank verifies one rank response: ordered best first (lowest
// response time), min(topk, candidates) entries, each a distinct
// candidate. cands is nil for a full-catalogue rank, whose entries must
// name catalogue services.
func checkRank(body []byte, cands []int32, catalogue int) error {
	var resp server.RankResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("rank response: %w", err)
	}
	want := topK
	if cands != nil {
		if len(resp.Unknown) > 0 || resp.Candidates != len(cands) {
			return fmt.Errorf("rank response: %d candidates known, %d unknown; sent %d",
				resp.Candidates, len(resp.Unknown), len(cands))
		}
		want = min(topK, len(cands))
	} else if resp.Candidates < catalogue {
		return fmt.Errorf("full rank scanned %d services, catalogue has %d", resp.Candidates, catalogue)
	}
	if len(resp.Ranked) != want {
		return fmt.Errorf("rank response: %d entries, want %d", len(resp.Ranked), want)
	}
	seen := map[int]bool{}
	for i, e := range resp.Ranked {
		s, ok := serviceIndex(e.Service)
		if !ok {
			return fmt.Errorf("rank response: entry %d names %q", i, e.Service)
		}
		if cands != nil {
			j := sort.Search(len(cands), func(j int) bool { return cands[j] >= int32(s) })
			if j == len(cands) || cands[j] != int32(s) {
				return fmt.Errorf("rank response: %q is not a candidate", e.Service)
			}
		} else if s >= catalogue+reserve {
			return fmt.Errorf("rank response: %q is not in the catalogue", e.Service)
		}
		if seen[s] {
			return fmt.Errorf("rank response: %q listed twice", e.Service)
		}
		seen[s] = true
		if i > 0 && e.Value < resp.Ranked[i-1].Value {
			return fmt.Errorf("rank response: entry %d (%g) ranks after a worse one (%g)", i, e.Value, resp.Ranked[i-1].Value)
		}
	}
	return nil
}

// checkResponses runs the per-response checks over every answered
// request of the run.
func checkResponses(w workloadSpec, in *inputs, runs []phaseRun) error {
	for _, pr := range runs {
		for i := range pr.results {
			r := &pr.results[i]
			if !r.ok() {
				continue
			}
			var err error
			switch r.op {
			case opRank:
				err = checkRank(r.body, in.ranks[r.ref].cands, w.services)
			case opRankAll:
				err = checkRank(r.body, nil, w.services)
			case opObserve:
				var resp server.ObserveResponse
				if err = json.Unmarshal(r.body, &resp); err == nil && resp.Accepted != observeBatch {
					err = fmt.Errorf("observe acked %d of %d samples", resp.Accepted, observeBatch)
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// idMaps resolves names to a replica's model IDs.
type idMaps struct {
	users, services map[string]int
	serviceNames    map[int]string
}

func fetchIDs(c *http.Client, base string) (*idMaps, error) {
	var us, ss []server.EntityInfo
	if err := getJSON(c, base+"/api/v1/users", &us); err != nil {
		return nil, err
	}
	if err := getJSON(c, base+"/api/v1/services", &ss); err != nil {
		return nil, err
	}
	m := &idMaps{users: map[string]int{}, services: map[string]int{}, serviceNames: map[int]string{}}
	for _, e := range us {
		m.users[e.Name] = e.ID
	}
	for _, e := range ss {
		m.services[e.Name] = e.ID
		m.serviceNames[e.ID] = e.Name
	}
	return m, nil
}

func (m *idMaps) named(ranked []core.Ranked) []server.RankedService {
	out := make([]server.RankedService, len(ranked))
	for i, r := range ranked {
		out[i] = server.RankedService{Service: m.serviceNames[r.Service], Value: r.Value}
	}
	return out
}

// expectedRanks computes what the gateway may answer for a rank body
// from the owning group's replica views. A full-catalogue rank is served
// whole by one replica: any replica whose view has the version the
// response reports. A candidate rank is split in contiguous halves over
// the group's replicas in configuration order and the partial top-k
// lists are merged. The replicas run independent background replay, so
// their models differ and each part is computed on the view that served
// it.
func expectedRanks(reps []*node, ids []*idMaps, req server.RankRequest, servedVersion uint64) ([][]server.RankedService, error) {
	if len(req.Services) == 0 {
		var out [][]server.RankedService
		for i, n := range reps {
			v := n.svc.Engine().View()
			if v.Version() != servedVersion {
				continue
			}
			uid, ok := ids[i].users[req.User]
			if !ok {
				return nil, fmt.Errorf("user %s unknown to %s", req.User, n.url)
			}
			out = append(out, ids[i].named(v.TopKAll(uid, req.TopK, true, 1)))
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no replica of the group has view version %d", servedVersion)
		}
		return out, nil
	}
	var all []server.RankedService
	parts := len(reps)
	for i, n := range reps {
		chunk := req.Services[i*len(req.Services)/parts : (i+1)*len(req.Services)/parts]
		uid, ok := ids[i].users[req.User]
		if !ok {
			return nil, fmt.Errorf("user %s unknown to %s", req.User, n.url)
		}
		cand := make([]int, len(chunk))
		for j, name := range chunk {
			if cand[j], ok = ids[i].services[name]; !ok {
				return nil, fmt.Errorf("service %s unknown to %s", name, n.url)
			}
		}
		ranked, _ := n.svc.Engine().View().TopK(uid, cand, min(req.TopK, len(cand)), true)
		all = append(all, ids[i].named(ranked)...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Value != all[b].Value {
			return all[a].Value < all[b].Value
		}
		return all[a].Service < all[b].Service
	})
	if len(all) > req.TopK {
		all = all[:req.TopK]
	}
	return [][]server.RankedService{all}, nil
}

// checkSampledRanks replays up to n of the run's rank bodies of each
// kind through the gateway and compares each answer with the ranking
// computed directly on the serving replicas' views, returning how many
// it compared. Replay must be stopped and replication drained first.
func checkSampledRanks(c *http.Client, rg *rig, in *inputs, n int) (int, error) {
	bodies := append(append([]rankBody(nil), in.ranks[:min(n, len(in.ranks))]...), in.rankAlls[:min(n, len(in.rankAlls))]...)
	if len(bodies) == 0 {
		return 0, nil
	}
	ids := map[*node]*idMaps{}
	for _, nd := range rg.nodes() {
		m, err := fetchIDs(c, nd.url)
		if err != nil {
			return 0, err
		}
		ids[nd] = m
	}
	for i, rb := range bodies {
		var req server.RankRequest
		if err := json.Unmarshal(rb.body, &req); err != nil {
			return i, err
		}
		var got server.RankResponse
		if err := postJSON(c, rg.gwURL+"/api/v1/rank", req, &got); err != nil {
			return i, err
		}
		reps := rg.groups[rg.groupOf(req.User)]
		repIDs := make([]*idMaps, len(reps))
		for i, nd := range reps {
			repIDs[i] = ids[nd]
		}
		wants, err := expectedRanks(reps, repIDs, req, got.ViewVersion)
		if err != nil {
			return i, err
		}
		for _, want := range wants {
			if err = sameRanking(got.Ranked, want); err == nil {
				break
			}
		}
		if err != nil {
			return i, fmt.Errorf("rank for %s (%d candidates): %w", req.User, len(req.Services), err)
		}
	}
	return len(bodies), nil
}

func sameRanking(got, want []server.RankedService) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, views give %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %v, views give %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkReadYourWrites asks the gateway for a prediction of every pair an
// acked observe wrote.
func checkReadYourWrites(c *http.Client, gwURL string, in *inputs, runs []phaseRun) (int, error) {
	byUser := map[int]map[int]bool{}
	for _, pr := range runs {
		for i := range pr.results {
			r := &pr.results[i]
			if r.op != opObserve || !r.ok() {
				continue
			}
			for _, p := range in.observes[r.ref].pairs {
				if byUser[int(p.u)] == nil {
					byUser[int(p.u)] = map[int]bool{}
				}
				byUser[int(p.u)][int(p.s)] = true
			}
		}
	}
	checked := 0
	for u, set := range byUser {
		names := make([]string, 0, len(set))
		for s := range set {
			names = append(names, serviceName(s))
		}
		for lo := 0; lo < len(names); lo += 5000 {
			chunk := names[lo:min(lo+5000, len(names))]
			var resp server.BatchPredictResponse
			if err := postJSON(c, gwURL+"/api/v1/predict", server.BatchPredictRequest{User: userName(u), Services: chunk}, &resp); err != nil {
				return checked, err
			}
			if len(resp.Predictions) != len(chunk) {
				return checked, fmt.Errorf("batch predict for %s: %d answers for %d services", userName(u), len(resp.Predictions), len(chunk))
			}
			for _, p := range resp.Predictions {
				if !p.OK {
					return checked, fmt.Errorf("acked pair (%s, %s) does not predict", userName(u), p.Service)
				}
			}
			checked += len(chunk)
		}
	}
	return checked, nil
}

// accuracy measures the gateway's predictions on held-out pairs against
// the generator's truth at the latest slice the run wrote, and the same
// for the mean predictor over every value the rig was given.
func accuracy(c *http.Client, gwURL string, gen *dataset.Generator, test []pair, slice int, trainMean float64) (amf, mean eval.Metrics, err error) {
	byUser := map[int][]string{}
	samples := make([]stream.Sample, len(test))
	for i, p := range test {
		byUser[int(p.u)] = append(byUser[int(p.u)], serviceName(int(p.s)))
		samples[i] = stream.Sample{User: int(p.u), Service: int(p.s),
			Value: gen.Value(dataset.ResponseTime, int(p.u), int(p.s), slice)}
	}
	preds := map[pair]float64{}
	for u, names := range byUser {
		var resp server.BatchPredictResponse
		if err := postJSON(c, gwURL+"/api/v1/predict", server.BatchPredictRequest{User: userName(u), Services: names}, &resp); err != nil {
			return amf, mean, err
		}
		for _, p := range resp.Predictions {
			s, ok := serviceIndex(p.Service)
			if !p.OK || !ok {
				return amf, mean, fmt.Errorf("no prediction for held-out pair (%s, %s)", userName(u), p.Service)
			}
			preds[pair{int32(u), int32(s)}] = p.Value
		}
	}
	amf = eval.Compute(func(u, s int) (float64, bool) {
		v, ok := preds[pair{int32(u), int32(s)}]
		return v, ok
	}, samples)
	mean = eval.Compute(func(int, int) (float64, bool) { return trainMean, true }, samples)
	return amf, mean, nil
}

// journalMark is where the timed phases start in each group's WAL and in
// each replica's count of applied samples.
type journalMark struct {
	walFrom [numGroups]uint64
	applied map[*node]int64
}

func markJournal(rg *rig) journalMark {
	m := journalMark{applied: map[*node]int64{}}
	for g, reps := range rg.groups {
		m.walFrom[g] = reps[0].mgr.WAL().DurableSeq()
		for _, n := range reps {
			m.applied[n] = n.svc.Engine().Stats().Applied
		}
	}
	return m
}

// journalKey is one sample as a leader journals it: model IDs and value.
type journalKey struct {
	user, service int
	value         float64
}

// checkJournaled verifies that no acked sample is lost. Every sample of
// every acked observe must be in its group leader's durable WAL after the
// mark, and every replica of the group must have applied exactly as many
// samples since the mark as those WAL records hold. Replication must be
// drained first. It returns how many acked samples it found.
func checkJournaled(c *http.Client, rg *rig, in *inputs, runs []phaseRun, mark journalMark) (int, error) {
	var acked []int32 // indices into in.observes, one per acked request
	for _, pr := range runs {
		for i := range pr.results {
			if r := &pr.results[i]; r.op == opObserve && r.ok() {
				acked = append(acked, r.ref)
			}
		}
	}
	found := 0
	for g, reps := range rg.groups {
		lead := reps[0]
		var buf bytes.Buffer
		if _, err := lead.mgr.WAL().StreamSince(mark.walFrom[g], &buf, 0); err != nil {
			return found, fmt.Errorf("group %d WAL: %w", g, err)
		}
		journal := map[journalKey]int{}
		journaled := 0
		rr := store.NewRecordReader(&buf)
		for first := true; ; first = false {
			e, err := rr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return found, fmt.Errorf("group %d WAL: %w", g, err)
			}
			if first && e.Seq != mark.walFrom[g]+1 {
				return found, fmt.Errorf("group %d WAL resumes at seq %d, not %d", g, e.Seq, mark.walFrom[g]+1)
			}
			for _, s := range e.Samples {
				journal[journalKey{s.User, s.Service, s.Value}]++
				journaled++
			}
		}
		ids, err := fetchIDs(c, lead.url)
		if err != nil {
			return found, err
		}
		for _, ref := range acked {
			ob := in.observes[ref]
			for j, p := range ob.pairs {
				if rg.groupOf(userName(int(p.u))) != g {
					continue
				}
				k := journalKey{ids.users[userName(int(p.u))], ids.services[serviceName(int(p.s))], ob.values[j]}
				if journal[k] == 0 {
					return found, fmt.Errorf("acked sample (%s, %s, %g) is not in group %d's durable WAL",
						userName(int(p.u)), serviceName(int(p.s)), ob.values[j], g)
				}
				journal[k]--
				found++
			}
		}
		for _, n := range reps {
			if got := n.svc.Engine().Stats().Applied - mark.applied[n]; got != int64(journaled) {
				return found, fmt.Errorf("%s applied %d samples during the run; group %d's WAL holds %d", n.url, got, g, journaled)
			}
		}
	}
	return found, nil
}
