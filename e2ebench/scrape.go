package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/qoslab/amf/internal/obs"
)

// scrape is one replica's /metrics page, reduced to what the per-layer
// ledger reads: counter and gauge values by family, and histograms
// summed over their label sets.
type scrape struct {
	values map[string]float64
	hists  map[string]*hist
}

// hist is a cumulative histogram: counts at or below each upper bound.
type hist struct {
	uppers []float64
	cums   []float64
	sum    float64
	count  float64
}

func scrapeMetrics(c *http.Client, url string) (*scrape, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: HTTP %d", url, resp.StatusCode)
	}
	tm, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	sc := &scrape{values: map[string]float64{}, hists: map[string]*hist{}}
	for name, f := range tm.Families {
		if f.Type != "histogram" {
			for _, s := range f.Samples {
				sc.values[name] += s.Value
			}
			continue
		}
		h := &hist{}
		byLe := map[float64]float64{}
		for _, s := range f.Samples {
			switch s.Name {
			case name + "_bucket":
				le, err := strconv.ParseFloat(s.Labels["le"], 64)
				if err != nil {
					if s.Labels["le"] != "+Inf" {
						return nil, fmt.Errorf("%s: bad le %q", name, s.Labels["le"])
					}
					le = math.Inf(1)
				}
				byLe[le] += s.Value
			case name + "_sum":
				h.sum += s.Value
			case name + "_count":
				h.count += s.Value
			}
		}
		for le := range byLe {
			h.uppers = append(h.uppers, le)
		}
		sort.Float64s(h.uppers)
		for _, le := range h.uppers {
			h.cums = append(h.cums, byLe[le])
		}
		sc.hists[name] = h
	}
	return sc, nil
}

// delta is what a histogram gained between two scrapes.
func (h *hist) delta(before *hist) *hist {
	if before == nil {
		return h
	}
	d := &hist{sum: h.sum - before.sum, count: h.count - before.count}
	prev := map[float64]float64{}
	for i, le := range before.uppers {
		prev[le] = before.cums[i]
	}
	for i, le := range h.uppers {
		d.uppers = append(d.uppers, le)
		d.cums = append(d.cums, h.cums[i]-prev[le])
	}
	return d
}

// merge adds another histogram with the same bucket layout.
func (h *hist) merge(o *hist) *hist {
	if h == nil {
		return o
	}
	if o == nil {
		return h
	}
	out := &hist{sum: h.sum + o.sum, count: h.count + o.count}
	idx := map[float64]int{}
	for i, le := range h.uppers {
		out.uppers = append(out.uppers, le)
		out.cums = append(out.cums, h.cums[i])
		idx[le] = i
	}
	for i, le := range o.uppers {
		if j, ok := idx[le]; ok {
			out.cums[j] += o.cums[i]
		}
	}
	return out
}

// quantile interpolates linearly inside the bucket holding rank q·count.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.count <= 0 {
		return 0
	}
	rank := q * h.count
	prevCum, lower := 0.0, 0.0
	for i, c := range h.cums {
		if c >= rank && c > prevCum {
			upper := h.uppers[i]
			if math.IsInf(upper, 1) {
				return lower
			}
			return lower + (rank-prevCum)/(c-prevCum)*(upper-lower)
		}
		prevCum, lower = c, h.uppers[i]
	}
	return lower
}

func (h *hist) mean() float64 {
	if h == nil || h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// scrapeDelta is the per-family change across a set of replicas.
type scrapeDelta struct {
	values map[string]float64
	hists  map[string]*hist
}

func diffScrapes(before, after []*scrape) scrapeDelta {
	d := scrapeDelta{values: map[string]float64{}, hists: map[string]*hist{}}
	for i := range after {
		for name, v := range after[i].values {
			d.values[name] += v - before[i].values[name]
		}
		for name, h := range after[i].hists {
			d.hists[name] = d.hists[name].merge(h.delta(before[i].hists[name]))
		}
	}
	return d
}

// procStats is a process-wide resource sample.
type procStats struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(procSamples)
	return procStats{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: float64(procSamples[0].Value.Uint64()),
		gcCPU:      procSamples[1].Value.Float64(),
		totalCPU:   procSamples[2].Value.Float64(),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
