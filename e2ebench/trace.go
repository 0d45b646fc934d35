package main

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/obs/trace"
)

// The tracer records spans at the four boundaries the benchmark owns:
// the client request (loadgen), the gateway handler, each backend hop
// (the gateway's http.Client transport) and each replica handler. Spans
// are joined by the trace ID the gateway mints: X-Request-Id towards the
// client, X-Amf-Trace towards the backends. Nothing inside the program
// is instrumented. Spans stay in memory until the run ends.

type spanKind uint8

const (
	spanGateway spanKind = iota
	spanHop
	spanReplica
)

type span struct {
	trace      trace.ID
	kind       spanKind
	start, end time.Duration // since the tracer's base
}

type tracer struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	recs []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.recs = append(t.recs, s)
	t.mu.Unlock()
}

// spans returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.recs
	t.recs = nil
	return out
}

func (t *tracer) gatewayHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		if id, ok := parseTraceID(w.Header().Get("X-Request-Id")); ok {
			t.add(span{trace: id, kind: spanGateway, start: start, end: end})
		}
	})
}

func (t *tracer) replicaHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, _, traced := trace.ParseHeader(r.Header.Get(trace.Header))
		start := t.now()
		next.ServeHTTP(w, r)
		if traced {
			t.add(span{trace: id, kind: spanReplica, start: start, end: t.now()})
		}
	})
}

// hopTransport times each backend round trip from the request's start
// until the gateway closes the response body.
func (t *tracer) hopTransport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return next.RoundTrip(req)
		}
		id, _, traced := trace.ParseHeader(req.Header.Get(trace.Header))
		start := t.now()
		resp, err := next.RoundTrip(req)
		if !traced {
			return resp, err
		}
		if err != nil {
			t.add(span{trace: id, kind: spanHop, start: start, end: t.now()})
			return resp, err
		}
		resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
			t.add(span{trace: id, kind: spanHop, start: start, end: t.now()})
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func parseTraceID(s string) (trace.ID, bool) {
	if len(s) != 32 {
		return trace.ID{}, false
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if err1 != nil || err2 != nil {
		return trace.ID{}, false
	}
	return trace.ID{Hi: hi, Lo: lo}, true
}

// interval is a closed time span; unionLen is the length of a set of
// them after merging overlaps.
type interval struct{ start, end time.Duration }

func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// ledgerRow is one traced request folded into the boundary self-times.
// The four parts add up to the client span exactly:
//
//	accept    = client − gateway handler      (connection, header parse, response transfer)
//	gwSelf    = gateway − ∪hops               (body scan, routing, split, merge, encode)
//	transport = ∪hops − ∪replica handlers     (backend connection and transfer)
//	handler   = ∪replica handlers             (server decode, engine, view, encode)
type ledgerRow struct {
	op                                        op
	client, accept, gwSelf, transport, handle time.Duration
	hops                                      int
	hopTransport                              []time.Duration // per hop: hop − its replica handler
	handlerSpans                              []time.Duration
}

// fold joins the spans of each traced client request into a ledger row.
// Requests missing a boundary (they straddled a tracing toggle) are
// dropped.
func fold(spans []span, reqs []clientSpan) []ledgerRow {
	type group struct {
		gw       *span
		hops     []span
		replicas []span
	}
	byID := make(map[trace.ID]*group, len(reqs))
	for _, c := range reqs {
		byID[c.trace] = &group{}
	}
	for i := range spans {
		s := &spans[i]
		g := byID[s.trace]
		if g == nil {
			continue
		}
		switch s.kind {
		case spanGateway:
			g.gw = s
		case spanHop:
			g.hops = append(g.hops, *s)
		case spanReplica:
			g.replicas = append(g.replicas, *s)
		}
	}
	var rows []ledgerRow
	for _, c := range reqs {
		g := byID[c.trace]
		if g.gw == nil || len(g.hops) == 0 || len(g.hops) != len(g.replicas) {
			continue
		}
		hops := make([]interval, len(g.hops))
		for i, h := range g.hops {
			hops[i] = interval{h.start, h.end}
		}
		reps := make([]interval, len(g.replicas))
		for i, h := range g.replicas {
			reps[i] = interval{h.start, h.end}
		}
		gw := g.gw.end - g.gw.start
		hopU, repU := unionLen(hops), unionLen(reps)
		row := ledgerRow{
			op:        c.op,
			client:    c.end - c.start,
			accept:    c.end - c.start - gw,
			gwSelf:    gw - hopU,
			transport: hopU - repU,
			handle:    repU,
			hops:      len(g.hops),
		}
		// Pair each hop with the replica span it contains.
		for _, h := range g.hops {
			for _, rs := range g.replicas {
				if rs.start >= h.start && rs.end <= h.end {
					row.hopTransport = append(row.hopTransport, (h.end-h.start)-(rs.end-rs.start))
					row.handlerSpans = append(row.handlerSpans, rs.end-rs.start)
					break
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}
