package main

import (
	"net/http"
	"runtime"
	"time"
)

// The traced run's per-layer ledger. Span-derived rows come from the
// traced windows of the nominal step; /metrics and process rows cover
// the whole nominal step.

// procDelta is the process's resource use between two samples.
type procDelta struct {
	wall, cpu                   time.Duration
	allocBytes, gcCPU, totalCPU float64
}

func (p procStats) since(o procStats) procDelta {
	return procDelta{
		wall:       p.at.Sub(o.at),
		cpu:        p.cpu - o.cpu,
		allocBytes: p.allocBytes - o.allocBytes,
		gcCPU:      p.gcCPU - o.gcCPU,
		totalCPU:   p.totalCPU - o.totalCPU,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(rep *report, w workloadSpec, rg *rig, in *inputs, nominal phaseRun, spans []span,
	leaders, followers scrapeDelta, proc procDelta, replLags []time.Duration) {
	wall := proc.wall.Seconds()
	cores := float64(runtime.GOMAXPROCS(0))

	// loadgen
	failed, observes := 0, 0
	for i := range nominal.results {
		r := &nominal.results[i]
		if !r.ok() {
			failed++
		} else if r.op == opObserve {
			observes++
		}
	}
	rep.set("loadgen.lag_p99_ms", ms(percentile(nominal.lags, 0.99)), "ms")
	rep.set("loadgen.sent", float64(len(nominal.results)), "count")
	rep.set("loadgen.failed", float64(failed), "count")

	// Spans: traced and untraced windows of the same step.
	var reqs []clientSpan
	var tracedLat, plainLat [numOps][]time.Duration
	for i := range nominal.results {
		r := &nominal.results[i]
		if !r.ok() {
			continue
		}
		if int((r.due-nominal.start)/traceWindow)%2 == 1 {
			tracedLat[r.op] = append(tracedLat[r.op], r.latency())
			reqs = append(reqs, clientSpan{trace: r.trace, op: r.op, start: r.start, end: r.end})
		} else {
			plainLat[r.op] = append(plainLat[r.op], r.latency())
		}
	}
	rows := fold(spans, reqs)
	// The overhead is compared op by op, weighted by each op's share, so
	// a different op mix in the two halves does not pass for overhead.
	var overhead float64
	var nTraced, nPlain int
	for o := op(0); o < numOps; o++ {
		nTraced += len(tracedLat[o])
		nPlain += len(plainLat[o])
		if len(tracedLat[o]) > 0 && len(plainLat[o]) > 0 {
			overhead += w.mix[o] * float64(percentile(tracedLat[o], 0.5)-percentile(plainLat[o], 0.5))
		}
	}
	rep.set("trace.overhead_p50_us", overhead/1e3, "us")

	var accept, hopTransport []time.Duration
	var gwSelf, handler [numOps][]time.Duration
	hops := 0
	for _, row := range rows {
		accept = append(accept, row.accept)
		gwSelf[row.op] = append(gwSelf[row.op], row.gwSelf)
		handler[row.op] = append(handler[row.op], row.handlerSpans...)
		hopTransport = append(hopTransport, row.hopTransport...)
		hops += row.hops
	}
	rep.set("http.accept_wait_p99_us", us(percentile(accept, 0.99)), "us")
	rep.set("cluster.rank_self_p50_us", us(percentile(gwSelf[opRank], 0.5)), "us")
	rep.set("cluster.rank_self_p99_us", us(percentile(gwSelf[opRank], 0.99)), "us")
	rep.set("cluster.observe_self_p50_us", us(percentile(gwSelf[opObserve], 0.5)), "us")
	rep.set("cluster.hops_per_req", ratio(float64(hops), float64(len(rows))), "count")
	rep.set("cluster.transport_p50_us", us(percentile(hopTransport, 0.5)), "us")
	rep.set("server.rank_handler_p50_us", us(percentile(handler[opRank], 0.5)), "us")
	rep.set("server.rank_handler_p99_us", us(percentile(handler[opRank], 0.99)), "us")
	rep.set("server.rankall_handler_p50_us", us(percentile(handler[opRankAll], 0.5)), "us")
	rep.set("server.observe_handler_p50_us", us(percentile(handler[opObserve], 0.5)), "us")
	rep.set("server.observe_handler_p99_us", us(percentile(handler[opObserve], 0.99)), "us")
	rep.set("server.predict_handler_p50_us", us(percentile(handler[opPredict], 0.5)), "us")

	rep.printf("tracing overhead: traced p50 − untraced p50, weighted over ops = %.1f µs (%d traced, %d untraced requests)",
		overhead/1e3, nTraced, nPlain)
	for o := op(0); o < numOps; o++ {
		rep.set("ledger."+opNames[o]+"_closure", ledger(rep, o, rows, len(tracedLat[o])), "ratio")
	}

	// engine, from every replica's /metrics
	all := func(name string) *hist { return leaders.hists[name].merge(followers.hists[name]) }
	pub := all("amf_engine_publish_seconds")
	rep.set("engine.publish_mean_us", pub.mean()*1e6, "us")
	rep.set("engine.publish_busy_share", ratio(pub.mean()*pub.count, wall*cores), "ratio")
	rep.set("engine.publishes_per_observe", ratio(leaders.hists["amf_engine_publish_seconds"].count, float64(observes)), "ratio")
	lapply := leaders.hists["amf_engine_apply_seconds"]
	rep.set("engine.apply_busy_share", ratio(lapply.mean()*lapply.count, wall*cores), "ratio")
	rep.set("engine.queue_wait_p99_us", all("amf_engine_queue_wait_seconds").quantile(0.99)*1e6, "us")

	// store, leaders only
	fsync := leaders.hists["amf_wal_fsync_seconds"]
	rep.set("store.fsync_mean_us", fsync.mean()*1e6, "us")
	rep.set("store.fsync_p99_us", fsync.quantile(0.99)*1e6, "us")
	rep.set("store.records_per_fsync", leaders.hists["amf_wal_group_commit_records"].mean(), "count")
	rep.set("store.wal_bytes_per_obs", ratio(leaders.values["amf_wal_bytes_total"], float64(observes*observeBatch)), "bytes")

	// repl
	rep.set("repl.lag_p99_ms", ms(percentile(replLags, 0.99)), "ms")
	fapply, fpub := followers.hists["amf_engine_apply_seconds"], followers.hists["amf_engine_publish_seconds"]
	rep.set("repl.follower_busy_share", ratio(fapply.mean()*fapply.count+fpub.mean()*fpub.count, wall*cores), "ratio")

	// core: the rank kernels called directly with the run's own inputs.
	rk := all("amf_rank_latency_seconds")
	rep.set("core.rank_busy_share", ratio(rk.mean()*rk.count, wall*cores), "ratio")
	topk, topkAll := coreTimings(rg, in)
	rep.set("core.topk_p50_us", us(percentile(topk, 0.5)), "us")
	rep.set("core.topkall_p50_us", us(percentile(topkAll, 0.5)), "us")

	// process
	rep.set("process.alloc_mb_per_s", proc.allocBytes/1e6/wall, "MB/s")
	rep.set("process.gc_cpu_share", ratio(proc.gcCPU, proc.totalCPU), "ratio")
	rep.set("process.cpu_util", proc.cpu.Seconds()/(wall*cores), "ratio")

	for _, name := range sortedNames(rep.metrics) {
		m := rep.metrics[name]
		rep.printf("layer %s = %.4f %s", name, m.Value, m.Unit)
	}
}

// ledger prints one op's client p50 split by boundary and returns the
// closure: the p50s of the four parts (accept wait, gateway self,
// transport, replica handler) summed, over the client p50. Request by
// request the parts add up to the client span exactly, each being a
// span minus its children, so the closure does not test the join; it
// shows how well the per-part medians account for the median request.
// A sum of medians falls short of the median of sums when the parts are
// skewed, so a closure below 0.9 means the parts' tails, not a missing
// boundary.
func ledger(rep *report, o op, rows []ledgerRow, traced int) float64 {
	var client, acc, gw, tp, hd []time.Duration
	for _, row := range rows {
		if row.op != o {
			continue
		}
		client = append(client, row.client)
		acc = append(acc, row.accept)
		gw = append(gw, row.gwSelf)
		tp = append(tp, row.transport)
		hd = append(hd, row.handle)
	}
	if len(client) == 0 {
		return 0
	}
	p50 := us(percentile(client, 0.5))
	parts := [4]float64{us(percentile(acc, 0.5)), us(percentile(gw, 0.5)), us(percentile(tp, 0.5)), us(percentile(hd, 0.5))}
	closure := (parts[0] + parts[1] + parts[2] + parts[3]) / p50
	rep.printf("ledger %s (%d of %d traced requests joined): client p50 %.1f µs; p50s of accept %.1f + gateway self %.1f + transport %.1f + replica handler %.1f µs; closure %.3f",
		opNames[o], len(client), traced, p50, parts[0], parts[1], parts[2], parts[3], closure)
	if closure < 0.9 || closure > 1.1 {
		rep.printf("ledger %s: closure %.3f is outside 10%%", opNames[o], closure)
	}
	return closure
}

// coreTimings times View().TopK and TopKAll on each rank body's owning
// group leader, with the body's own user and candidates.
func coreTimings(rg *rig, in *inputs) (topk, topkAll []time.Duration) {
	c := &http.Client{Timeout: time.Minute}
	defer c.CloseIdleConnections()
	ids := map[*node]*idMaps{}
	idsOf := func(n *node) *idMaps {
		if m, ok := ids[n]; ok {
			return m
		}
		m, err := fetchIDs(c, n.url)
		if err != nil {
			m = &idMaps{}
		}
		ids[n] = m
		return m
	}
	for _, rb := range in.ranks {
		lead := rg.groups[rg.groupOf(userName(rb.user))][0]
		m := idsOf(lead)
		uid, ok := m.users[userName(rb.user)]
		if !ok {
			continue
		}
		cand := make([]int, 0, len(rb.cands))
		for _, s := range rb.cands {
			if id, ok := m.services[serviceName(int(s))]; ok {
				cand = append(cand, id)
			}
		}
		v := lead.svc.Engine().View()
		start := time.Now()
		v.TopK(uid, cand, topK, true)
		topk = append(topk, time.Since(start))
	}
	for _, rb := range in.rankAlls {
		lead := rg.groups[rg.groupOf(userName(rb.user))][0]
		uid, ok := idsOf(lead).users[userName(rb.user)]
		if !ok {
			continue
		}
		v := lead.svc.Engine().View()
		workers := 1 // the server's choice: fan out across cores from 4096 services
		if v.NumServices() >= 4096 {
			workers = min(runtime.GOMAXPROCS(0), 64)
		}
		start := time.Now()
		v.TopKAll(uid, topK, true, workers)
		topkAll = append(topkAll, time.Since(start))
	}
	return topk, topkAll
}
