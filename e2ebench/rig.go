package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// The rig is cmd/amfgateway in front of 2 shard groups × 2 replicas of
// cmd/amfserver, all in this process over loopback HTTP, each wired the
// way its command wires it with default flags. The benchmark supplies
// only what it measures through: the gateway's HTTP client (to time
// backend hops) and a middleware around each replica's handler.

const (
	numGroups      = 2
	replayInterval = 100 * time.Millisecond // amfserver -replay-interval default
	replayBatch    = 500                    // amfserver -replay-batch default
)

// node is one amfserver replica.
type node struct {
	group int
	svc   *server.Server
	mgr   *store.Manager     // leader only
	repl  *server.Replicator // follower only
	srv   *http.Server
	url   string

	stopReplay context.CancelFunc
	replayDone chan struct{}
}

type rig struct {
	log    *slog.Logger
	groups [numGroups][]*node
	gw     *cluster.Gateway
	gwSrv  *http.Server
	gwURL  string
}

func (r *rig) nodes() []*node {
	var out []*node
	for _, g := range r.groups {
		out = append(out, g...)
	}
	return out
}

func (r *rig) leaders() []*node {
	var out []*node
	for _, g := range r.groups {
		out = append(out, g[0])
	}
	return out
}

func (r *rig) followers() []*node {
	var out []*node
	for _, g := range r.groups {
		out = append(out, g[1:]...)
	}
	return out
}

// serve starts an http.Server with amfserver's timeouts on a fresh
// loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

// newModel builds the model amfserver builds with its default flags.
func newModel() (*core.Model, error) {
	attr := dataset.ResponseTime
	rmin, rmax := attr.Range()
	cfg := core.DefaultConfig(attr.DefaultAlpha(), rmin, rmax)
	cfg.Expiry = 15 * time.Minute
	cfg.Seed = 1
	return core.New(cfg)
}

func storeOptions(log *slog.Logger) store.Options {
	return store.Options{Sync: store.SyncGroup, CheckpointInterval: time.Minute, Logger: log}
}

// newRig builds and starts the cluster under dir. wrapLeader, when set,
// wraps each leader's handler: the smoke test uses it to fake faults.
func newRig(dir string, tr *tracer, wrapLeader func(http.Handler) http.Handler) (*rig, error) {
	r := &rig{log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	for g := 0; g < numGroups; g++ {
		model, err := newModel()
		if err != nil {
			return nil, err
		}
		lead := &node{group: g, svc: server.New(model, server.WithLogger(r.log))}
		r.groups[g] = append(r.groups[g], lead)
		lead.mgr, err = store.Open(filepath.Join(dir, fmt.Sprintf("group%d", g)), storeOptions(r.log))
		if err != nil {
			return nil, err
		}
		if _, err := lead.svc.AttachDurable(lead.mgr); err != nil {
			return nil, err
		}
		h := tr.replicaHandler(lead.svc.Handler())
		if wrapLeader != nil {
			h = wrapLeader(h)
		}
		if lead.srv, lead.url, err = serve(h); err != nil {
			return nil, err
		}
		model, err = newModel()
		if err != nil {
			return nil, err
		}
		fol := &node{group: g, svc: server.New(model, server.WithLogger(r.log))}
		r.groups[g] = append(r.groups[g], fol)
		fol.repl, err = fol.svc.StartFollower(server.FollowerConfig{
			Leader:       lead.url,
			StoreOptions: storeOptions(r.log),
			WaitMS:       5000,
		})
		if err != nil {
			return nil, err
		}
		if fol.srv, fol.url, err = serve(tr.replicaHandler(fol.svc.Handler())); err != nil {
			return nil, err
		}
	}
	for _, n := range r.nodes() {
		ctx, cancel := context.WithCancel(context.Background())
		n.stopReplay, n.replayDone = cancel, make(chan struct{})
		go func(n *node) {
			defer close(n.replayDone)
			n.svc.RunReplay(ctx, replayInterval, replayBatch)
		}(n)
	}
	var groups [][]string
	for _, g := range r.groups {
		groups = append(groups, []string{g[0].url, g[1].url})
	}
	gw, err := cluster.New(cluster.Config{
		Groups:          groups,
		VNodes:          128,
		ProbeInterval:   500 * time.Millisecond,
		DownAfter:       3,
		FanOutThreshold: 256,
		ShedThreshold:   0.5,
		Logger:          r.log,
		// The gateway's default client, wrapped so backend hops can be timed.
		HTTP: &http.Client{Transport: tr.hopTransport(&http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		})},
	})
	if err != nil {
		return nil, err
	}
	r.gw = gw
	gw.Start()
	if r.gwSrv, r.gwURL, err = serve(tr.gatewayHandler(gw.Handler())); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// groupOf returns the shard group the gateway routes a user to.
func (r *rig) groupOf(user string) int {
	m := r.gw.Ring().Lookup(user)
	g, _ := strconv.Atoi(strings.TrimPrefix(m.Name(), "shard-"))
	return g
}

// stopReplay halts every replica's background replay, so the views
// stay fixed while outputs are compared against them.
func (r *rig) stopReplay() {
	for _, n := range r.nodes() {
		if n.stopReplay != nil {
			n.stopReplay()
			<-n.replayDone
			n.stopReplay = nil
		}
	}
}

// waitReplicated waits until each follower has applied its leader's
// durable WAL prefix, then flushes every engine so the published views
// reflect everything applied.
func (r *rig) waitReplicated(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, g := range r.groups {
		want := g[0].mgr.WAL().DurableSeq()
		for _, f := range g[1:] {
			for f.repl.AppliedSeq() < want {
				if time.Now().After(deadline) {
					return fmt.Errorf("follower of group %d applied seq %d, leader durable seq %d",
						f.group, f.repl.AppliedSeq(), want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	for _, n := range r.nodes() {
		n.svc.Engine().Flush()
	}
	return nil
}

func (r *rig) close() {
	if r.gwSrv != nil {
		_ = r.gwSrv.Close()
	}
	if r.gw != nil {
		r.gw.Close()
	}
	r.stopReplay()
	// Closing the servers first ends the followers' replication
	// long-polls, so stopping their tailers does not wait them out.
	for _, n := range r.nodes() {
		if n.srv != nil {
			_ = n.srv.Close()
		}
	}
	for _, n := range append(r.followers(), r.leaders()...) {
		n.svc.Close()
		if n.mgr != nil {
			_ = n.mgr.Close()
		}
	}
}

// seed loads the catalogue through the gateway in large observe batches
// from two concurrent clients.
func (r *rig) seed(c *http.Client, obs []server.Observation) error {
	const batch = 4000
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan []server.Observation)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if err := postJSON(c, r.gwURL+"/api/v1/observe", server.ObserveRequest{Observations: b}, nil); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for lo := 0; lo < len(obs); lo += batch {
		next <- obs[lo:min(lo+batch, len(obs))]
	}
	close(next)
	wg.Wait()
	return firstErr
}

// postJSON sends one JSON request and decodes a 200 answer into out.
func postJSON(c *http.Client, url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeOK(resp, url, out)
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeOK(resp, url, out)
}

func decodeOK(resp *http.Response, url string, out any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}
