package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/server"
)

type benchConfig struct {
	w       workloadSpec
	seed    int64
	seconds float64
	traced  bool
	dir     string
	// setups is how many times the rig is set up; setup_s is the median
	// and the last rig is measured.
	setups int
	// wrapLeader, when set, wraps each leader's handler (see newRig).
	wrapLeader func(http.Handler) http.Handler
}

const (
	// lagLimit marks a run invalid: a generator that released requests
	// this late was not offering the scheduled load. On a healthy run on
	// the two-vCPU host of README.md's baseline the p99 lateness is
	// 5–16 ms: the dispatcher shares the two cores with the rig.
	lagLimit = 100 * time.Millisecond
	// warmReplayEpochs is how many replay passes over its samples each
	// replica makes during warm-up: the convergence RunReplay would reach
	// after minutes of serving, done before timing.
	warmReplayEpochs = 2
	// traceWindow alternates tracing off and on in the traced run, so the
	// tracing overhead is measured under the same load drift.
	traceWindow  = 500 * time.Millisecond
	sampledRanks = 16
	testPairsN   = 10000
)

// groupRouter routes user names like the gateway, without a gateway:
// inputs are built before any rig exists.
func groupRouter() func(string) int {
	ring := cluster.NewRing(128)
	for g := 0; g < numGroups; g++ {
		ring.Add(fmt.Sprintf("shard-%d", g))
	}
	return func(user string) int {
		g, _ := strconv.Atoi(strings.TrimPrefix(ring.Lookup(user).Name(), "shard-"))
		return g
	}
}

// setupRig builds one rig and brings it to the state timing starts from:
// catalogue seeded through the gateway, followers caught up, replay
// warmed, every op's path exercised once.
func setupRig(cfg benchConfig, dir string, tr *tracer, seedObs []server.Observation, in *inputs, lg func(string) *loadgen) (*rig, time.Duration, error) {
	start := time.Now()
	rg, err := newRig(dir, tr, cfg.wrapLeader)
	if err != nil {
		return nil, 0, err
	}
	c := &http.Client{Timeout: time.Minute}
	defer c.CloseIdleConnections()
	if err := rg.seed(c, seedObs); err != nil {
		rg.close()
		return nil, 0, fmt.Errorf("seed: %w", err)
	}
	if err := rg.waitReplicated(30 * time.Second); err != nil {
		rg.close()
		return nil, 0, err
	}
	var wg sync.WaitGroup
	for _, n := range rg.nodes() {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.svc.Engine().ReplaySteps(warmReplayEpochs * len(seedObs) / numGroups)
		}(n)
	}
	wg.Wait()
	// Warm connections and code paths with every read op the workload
	// sends; observes are already warm from seeding.
	warm := lg(rg.gwURL)
	defer warm.close()
	var ph phase
	for o := op(0); o < opObserve; o++ {
		if !cfg.w.sends(o) {
			continue
		}
		for i := 0; i < 64; i++ {
			ph.entries = append(ph.entries, entry{op: o, ref: int32(i)})
		}
	}
	for _, r := range warm.run(ph, nil).results {
		if !r.ok() {
			rg.close()
			return nil, 0, fmt.Errorf("warm-up %s: HTTP %d", opNames[r.op], r.status)
		}
	}
	return rg, time.Since(start), nil
}

func runBench(cfg benchConfig) (*report, error) {
	w := cfg.w
	rep := &report{metrics: map[string]metric{}, correct: true}
	gen, err := newGenerator(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	groupOf := groupRouter()
	in := buildInputs(w, gen, cfg.seed, cfg.seconds, !cfg.traced, groupOf)
	seedObs := seedSamples(w, gen, cfg.seed, groupOf)
	tr := newTracer()
	conns := runtime.NumCPU()
	mkLoadgen := func(base string) *loadgen { return newLoadgen(base, in, tr, conns) }

	var setups []time.Duration
	var rg *rig
	for i := 0; i < max(cfg.setups, 1); i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("rig%d", i))
		r, d, err := setupRig(cfg, dir, tr, seedObs, in, mkLoadgen)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		if i < cfg.setups-1 {
			r.close()
			_ = os.RemoveAll(dir)
			continue
		}
		rg = r
	}
	defer rg.close()
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	setupS := setups[len(setups)/2].Seconds()

	lg := mkLoadgen(rg.gwURL)
	defer lg.close()
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	defer scrapeClient.CloseIdleConnections()

	// The nominal step, bracketed by the per-layer samples.
	before, err := scrapeAll(scrapeClient, rg)
	if err != nil {
		return nil, err
	}
	mark := markJournal(rg)
	procBefore := sampleProc()
	lagStop := make(chan struct{})
	lagDone := make(chan []time.Duration)
	go sampleReplLag(rg, lagStop, lagDone)
	var toggle func(time.Duration)
	if cfg.traced {
		toggle = func(due time.Duration) { tr.on.Store(int(due/traceWindow)%2 == 1) }
	}
	nominal := lg.run(in.phases[0], toggle)
	tr.on.Store(false)
	procAfter := sampleProc()
	// The peak through set-up and the nominal step: the ladder's length
	// varies from run to run, and so would a peak taken after it.
	rssMB := peakRSSMB()
	close(lagStop)
	replLags := <-lagDone
	after, err := scrapeAll(scrapeClient, rg)
	if err != nil {
		return nil, err
	}
	runs := []phaseRun{nominal}

	// The rate ladder, stopping at the first step that misses.
	var steps []stepOutcome
	if !cfg.traced {
		steps = append(steps, judgeStep(nominal))
		for _, ph := range in.phases[1:] {
			if !steps[len(steps)-1].pass {
				break
			}
			pr := lg.run(ph, nil)
			runs = append(runs, pr)
			st := judgeStep(pr)
			steps = append(steps, st)
		}
	}

	for _, pr := range runs {
		for i := range pr.results {
			rep.attempted++
			if !pr.results[i].ok() {
				rep.failed++
			}
		}
	}
	if lag := percentile(nominal.lags, 0.99); lag > lagLimit {
		return nil, fmt.Errorf("invalid run: generator lag p99 %v exceeds %v; the host could not offer the scheduled load", lag, lagLimit)
	}

	// Checks, with replay stopped so the views hold still.
	rg.stopReplay()
	if err := rg.waitReplicated(30 * time.Second); err != nil {
		rep.violate(fmt.Errorf("replication: %w", err))
	}
	if err := checkResponses(w, in, runs); err != nil {
		rep.violate(err)
	}
	checkClient := &http.Client{Timeout: time.Minute}
	defer checkClient.CloseIdleConnections()
	sampled, err := checkSampledRanks(checkClient, rg, in, sampledRanks)
	if err != nil {
		rep.violate(fmt.Errorf("sampled rank: %w", err))
	}
	journaled, err := checkJournaled(checkClient, rg, in, runs, mark)
	if err != nil {
		rep.violate(fmt.Errorf("durability: %w", err))
	}
	ryw, err := checkReadYourWrites(checkClient, rg.gwURL, in, runs)
	if err != nil {
		rep.violate(fmt.Errorf("read-your-writes: %w", err))
	}
	slice, trainSum, trainN := 0, 0.0, 0
	for _, o := range seedObs {
		trainSum += o.Value
		trainN++
	}
	for _, pr := range runs {
		for i := range pr.results {
			r := &pr.results[i]
			if r.op == opObserve && r.ok() {
				ob := in.observes[r.ref]
				slice = max(slice, ob.slice)
				for _, v := range ob.values {
					trainSum += v
					trainN++
				}
			}
		}
	}
	amf, mean, err := accuracy(checkClient, rg.gwURL, gen, testPairs(w, cfg.seed, testPairsN), slice, trainSum/float64(trainN))
	if err != nil {
		rep.violate(fmt.Errorf("accuracy: %w", err))
	} else if amf.MRE >= mean.MRE {
		rep.violate(fmt.Errorf("accuracy: MRE %.4f does not beat the mean predictor's %.4f", amf.MRE, mean.MRE))
	}
	rep.printf("checks: %d responses, %d acked samples found in the leaders' durable WALs and applied on every replica, %d acked pairs read back, %d sampled ranks against replica views, MRE %.4f vs mean predictor %.4f on %d held-out pairs",
		rep.attempted-rep.failed, journaled, ryw, sampled, amf.MRE, mean.MRE, amf.N)

	if cfg.traced {
		layerMetrics(rep, w, rg, in, nominal, tr.take(), diffScrapes(before[0], after[0]), diffScrapes(before[1], after[1]),
			procAfter.since(procBefore), replLags)
		return rep, nil
	}
	cpuPerReq := float64(procAfter.since(procBefore).cpu) / 1e6 / float64(max(len(nominal.results), 1))
	endToEnd(rep, w, nominal, steps, setupS, amf.MRE, rssMB, cpuPerReq)
	return rep, nil
}

// scrapeAll scrapes the leaders' and the followers' /metrics.
func scrapeAll(c *http.Client, rg *rig) ([2][]*scrape, error) {
	var out [2][]*scrape
	for i, set := range [][]*node{rg.leaders(), rg.followers()} {
		for _, n := range set {
			sc, err := scrapeMetrics(c, n.url)
			if err != nil {
				return out, err
			}
			out[i] = append(out[i], sc)
		}
	}
	return out, nil
}

// sampleReplLag samples every follower's replication lag until stop.
func sampleReplLag(rg *rig, stop <-chan struct{}, done chan<- []time.Duration) {
	var out []time.Duration
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			done <- out
			return
		case <-t.C:
			for _, f := range rg.followers() {
				out = append(out, f.repl.Lag())
			}
		}
	}
}

// stepOutcome is one ladder step judged against the per-op limits.
type stepOutcome struct {
	rate  float64
	score float64 // the stepQuantile of latency/limit over the step's requests
	grows bool    // the generator backlog grew: the rig was overloaded
	// served is the request rate the rig completed while overloaded.
	served float64
	pass   bool
	why    string
}

// stepQuantile is the percentile a ladder step is judged at. A step
// lasts about two seconds, and one stall of the rig (a replay publish
// on both cores, a GC cycle) delays a dozen consecutive requests: at
// p99 that single event decides the step, at p95 it takes several.
const stepQuantile = 0.95

// judgeStep passes a step when its requests meet their op's limit at
// stepQuantile, nothing failed, and the generator backlog did not grow.
// Each latency is divided by its op's limit and the step is judged on
// the pooled ratios: a step holds a few hundred requests, too few for a
// percentile per op.
func judgeStep(pr phaseRun) stepOutcome {
	st := stepOutcome{rate: pr.rate, pass: true}
	norm := make([]time.Duration, 0, len(pr.results))
	failed := 0
	for i := range pr.results {
		r := &pr.results[i]
		if !r.ok() {
			failed++
		}
		// Fixed point: 1e6 is exactly at the limit.
		norm = append(norm, time.Duration(float64(r.latency())/float64(opLimit[r.op])*1e6))
	}
	st.score = float64(percentile(norm, stepQuantile)) / 1e6
	n := len(pr.backlog)
	q := n / 4
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(pr.backlog[i])
		last += float64(pr.backlog[n-1-i])
	}
	st.grows = q > 0 && last/float64(q) > 2*first/float64(q)+2*float64(runtime.NumCPU())
	if st.grows {
		// Least-squares slope of the backlog over the step's dispatch
		// times: the rig completed rate − slope requests per second.
		var mt, mb float64
		for i, b := range pr.backlog {
			mt += float64(i) / pr.rate
			mb += float64(b)
		}
		mt, mb = mt/float64(n), mb/float64(n)
		var cov, vr float64
		for i, b := range pr.backlog {
			dt := float64(i)/pr.rate - mt
			cov += dt * (float64(b) - mb)
			vr += dt * dt
		}
		st.served = pr.rate - cov/vr
	}
	switch {
	case failed > 0:
		st.pass, st.why = false, fmt.Sprintf("%d failed", failed)
	case st.grows:
		st.pass, st.why = false, fmt.Sprintf("backlog grew: served %.0f req/s", st.served)
	case st.score > 1:
		st.pass, st.why = false, "over limit"
	}
	return st
}

// maxRPSInSLO places the offered rate at which the ladder stops meeting
// the limits between the last passing step and the first failing one.
// When the failing step overloaded the rig (its backlog grew), the rate
// the rig served during it is the crossing; otherwise the crossing is
// interpolated on the steps' latency/limit scores. Either way the value
// moves continuously with the rig's speed instead of jumping a whole
// step. A ladder that never fails reports its top step.
func maxRPSInSLO(steps []stepOutcome) (float64, bool) {
	prev := stepOutcome{rate: 0, score: 0, pass: true}
	for _, st := range steps {
		if st.pass {
			prev = st
			continue
		}
		if st.grows {
			return min(max(st.served, prev.rate), st.rate), true
		}
		frac := 0.5
		if st.score > prev.score && st.score > 1 {
			frac = (1 - prev.score) / (st.score - prev.score)
		}
		frac = min(max(frac, 0), 1)
		return prev.rate + frac*(st.rate-prev.rate), true
	}
	return prev.rate, false
}

func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// endToEnd fills the untraced run's metrics.
func endToEnd(rep *report, w workloadSpec, nominal phaseRun, steps []stepOutcome, setupS, mre, rssMB, cpuPerReq float64) {
	var perOp [numOps][]time.Duration
	good := 0
	for i := range nominal.results {
		r := &nominal.results[i]
		perOp[r.op] = append(perOp[r.op], r.latency())
		if r.ok() && r.latency() <= opLimit[r.op] {
			good++
		}
	}
	// The gated latency combines the ops' p50s in a geometric mean
	// weighted by each op's share of the mix, so every op moves it by its
	// share of its own relative change. The p50 of all requests pooled
	// would fall between a fast op and a slow one on a mixed workload and
	// swing with either op's shoulder.
	var logSum float64
	for o := op(0); o < numOps; o++ {
		if len(perOp[o]) == 0 {
			continue
		}
		p50 := percentile(perOp[o], 0.5)
		logSum += w.mix[o] * math.Log(ms(p50))
		rep.printf("op %s: %s.p50_ms=%.4f ms %s.p99_ms=%.4f ms (n=%d, limit %v)", opNames[o],
			opNames[o], ms(p50), opNames[o], ms(percentile(perOp[o], 0.99)), len(perOp[o]), opLimit[o])
	}
	rep.printf("loadgen: %d requests at %.0f req/s, dispatcher lag p99 %.3f ms", len(nominal.results), nominal.rate,
		ms(percentile(nominal.lags, 0.99)))
	for _, st := range steps {
		verdict := "pass"
		if !st.pass {
			verdict = "fail: " + st.why
		}
		rep.printf("ladder %.0f req/s: p%.0f of latency/limit %.3f, %s", st.rate, 100*stepQuantile, st.score, verdict)
	}
	maxRPS, bracketed := maxRPSInSLO(steps)
	censored := ""
	if !bracketed {
		censored = " (every step passed: a lower bound)"
	}
	// Not in the result line: the ladder's crossing moves with the host's
	// other tenants by more than the widest bound allowed (README.md).
	rep.printf("max_rps_in_slo=%.1f 1/s%s", maxRPS, censored)
	rep.set("setup_s", setupS, "s")
	rep.set("latency.mix_p50_ms", math.Exp(logSum), "ms")
	rep.set("cpu_ms_per_req", cpuPerReq, "ms")
	rep.set("goodput_ratio", float64(good)/float64(max(len(nominal.results), 1)), "ratio")
	rep.set("mre", mre, "ratio")
	rep.set("rss_peak_mb", rssMB, "MB")
}
