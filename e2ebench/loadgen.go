package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/obs/trace"
)

// The load generator is open-loop: one dispatcher releases each request
// at its scheduled time, whatever is still in flight, onto a queue that
// nproc workers drain, each over its own keep-alive connection. A
// request that finds no free connection waits in the queue, and that
// wait counts: latency runs from when the request was due.

// result is the outcome of one scheduled request.
type result struct {
	op         op
	ref        int32
	due        time.Duration // since the tracer's base, like start and end
	start, end time.Duration
	status     int // 0 when the request failed before an HTTP status
	trace      trace.ID
	body       []byte // kept for rank and observe responses, checked after the run
}

// clientSpan is the client half of a traced request.
type clientSpan struct {
	trace      trace.ID
	op         op
	start, end time.Duration
}

type loadgen struct {
	base    string // gateway URL
	in      *inputs
	tr      *tracer
	clients []*http.Client
}

func newLoadgen(base string, in *inputs, tr *tracer, conns int) *loadgen {
	lg := &loadgen{base: base, in: in, tr: tr}
	for i := 0; i < conns; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// phaseRun is what one phase of the schedule produced.
type phaseRun struct {
	start   time.Duration // since the tracer's base
	rate    float64
	results []result
	lags    []time.Duration // dispatcher lateness per request
	backlog []int           // requests outstanding at each dispatch
}

// run dispatches one phase and waits for every request of it to finish.
// toggle, when set, is called at each dispatch with the request's due
// time so the caller can switch tracing on and off by window.
func (lg *loadgen) run(ph phase, toggle func(time.Duration)) phaseRun {
	pr := phaseRun{
		rate:    ph.rate,
		results: make([]result, len(ph.entries)),
		lags:    make([]time.Duration, len(ph.entries)),
		backlog: make([]int, len(ph.entries)),
	}
	queue := make(chan int, len(ph.entries)) // sized to the number of sends
	var done atomic.Int64
	var wg sync.WaitGroup
	for _, c := range lg.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				lg.do(c, &pr.results[i])
				done.Add(1)
			}
		}(c)
	}
	start := lg.tr.now()
	pr.start = start
	for i, e := range ph.entries {
		due := start + e.due
		if d := due - lg.tr.now(); d > 0 {
			time.Sleep(d)
		}
		if toggle != nil {
			toggle(e.due)
		}
		now := lg.tr.now()
		pr.lags[i] = now - due
		pr.backlog[i] = i - int(done.Load())
		pr.results[i] = result{op: e.op, ref: e.ref, due: due}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return pr
}

func (lg *loadgen) do(c *http.Client, r *result) {
	var req *http.Request
	var err error
	switch r.op {
	case opRank:
		req, err = http.NewRequest(http.MethodPost, lg.base+"/api/v1/rank", bytes.NewReader(lg.in.ranks[r.ref].body))
	case opRankAll:
		req, err = http.NewRequest(http.MethodPost, lg.base+"/api/v1/rank", bytes.NewReader(lg.in.rankAlls[r.ref].body))
	case opPredict:
		req, err = http.NewRequest(http.MethodGet, lg.base+lg.in.predicts[r.ref], nil)
	case opObserve:
		req, err = http.NewRequest(http.MethodPost, lg.base+"/api/v1/observe", bytes.NewReader(lg.in.observes[r.ref].body))
	}
	r.start = lg.tr.now()
	if err != nil {
		r.end = lg.tr.now()
		return
	}
	if r.op != opPredict {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		r.end = lg.tr.now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = lg.tr.now()
	if err != nil {
		return
	}
	r.status = resp.StatusCode
	r.trace, _ = parseTraceID(resp.Header.Get("X-Request-Id"))
	if r.op != opPredict {
		r.body = body
	}
}

func (r *result) latency() time.Duration { return r.end - r.due }

// ok reports whether the request was answered 200.
func (r *result) ok() bool { return r.status == http.StatusOK }
