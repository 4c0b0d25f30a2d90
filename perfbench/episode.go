package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"demikernel/internal/bench"
	"demikernel/internal/dtrace"
)

// A workload builds one world from seed, drives it to completion, checks
// it, and returns the episode's measurements. tr is nil for untraced
// episodes.
type workload func(seed uint64, tr *tracer) (*episode, error)

var workloads = map[string]workload{
	"echo-tcp-32":    echoTCP32,
	"rack-kv-pareto": rackKVPareto,
	"chain-catmem":   chainCatmem,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// values is a named set of measurements.
type values map[string]float64

// diff names the first key (in sorted order) whose value differs between
// a and b, or returns "" when they are identical.
func (a values) diff(b values) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		av, aok := a[k]
		bv, bok := b[k]
		if aok != bok || av != bv {
			return fmt.Sprintf("%s (%v vs %v)", k, av, bv)
		}
	}
	return ""
}

// episode is one world's measurements.
type episode struct {
	// setup is the host time spent building the world before its first
	// request; window the host time over the post-warm-up requests, of
	// which there were windowReqs, allocating mallocs objects and
	// allocBytes bytes on the Go heap.
	setup, window       time.Duration
	windowReqs          int
	mallocs, allocBytes uint64
	// run is the host time of the whole simulation (warm-up, requests
	// and drain), over which the engine processed events.
	run    time.Duration
	events uint64

	attempted, failed int
	problems          []string

	// virt holds the deterministic virtual-time metrics; counts the
	// deterministic per-layer counts the program itself keeps.
	virt, counts values
	// traceCounts and traceTimes hold the traced per-layer counts and
	// host times (traced episodes only).
	traceCounts, traceTimes values
}

func (e *episode) hostRate() float64 { return float64(e.windowReqs) / e.window.Seconds() }

func (e *episode) fail(format string, a ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, a...))
}

// hostWindow measures host time and Go heap allocation between begin and
// end. Both are called from inside the simulation, where the engine's baton
// guarantees no other simulated code runs concurrently.
type hostWindow struct {
	t0          time.Time
	m0, m1      runtime.MemStats
	dur         time.Duration
	began, done bool
}

func (w *hostWindow) begin() {
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
	w.began = true
}

func (w *hostWindow) end() {
	w.dur = time.Since(w.t0)
	runtime.ReadMemStats(&w.m1)
	w.done = true
}

// record copies the window into e, failing e if it never closed.
func (w *hostWindow) record(e *episode, reqs int) {
	if !w.began || !w.done || reqs <= 0 {
		e.fail("measurement window never opened and closed")
		return
	}
	e.window = w.dur
	e.windowReqs = reqs
	e.mallocs = w.m1.Mallocs - w.m0.Mallocs
	e.allocBytes = w.m1.TotalAlloc - w.m0.TotalAlloc
}

// latencies fills the virtual latency metrics from the measured request
// latencies, with q, the quantile definition of the result table the
// workload reproduces.
func latencies(v values, lats []time.Duration, q func([]time.Duration, float64) time.Duration) {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	v["p50_us"] = us(q(sorted, 0.5))
	v["p99_us"] = us(q(sorted, 0.99))
	v["p999_us"] = us(q(sorted, 0.999))
	v["avg_us"] = us(mean(sorted))
	v["samples"] = float64(len(sorted))
	// Samples ranked above the p99.9 sample.
	v["samples_beyond_p999"] = float64(len(sorted) - int(float64(len(sorted))*0.999) - 1)
}

// histQuantile is bench.Hist's percentile, used by the echo and chain tables.
func histQuantile(sorted []time.Duration, q float64) time.Duration {
	h := &bench.Hist{}
	h.AddAll(sorted)
	return h.Percentile(math.Round(q*1000) / 10) // exact 50, 99, 99.9
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// critical fills into's crit.* with the mean critical-path split of the sampled
// requests in t, checking that every request's terms sum to its RTT.
func critical(e *episode, into values, t *dtrace.Tracer) {
	views := t.Assemble()
	var sums [6]int64 // wire, ring, in-os, app, redeem, gap
	for id, v := range views {
		if v.CritSum() != v.Root.Dur() {
			e.fail("trace %d: critical path sums to %d ns, RTT is %d ns", id, v.CritSum(), v.Root.Dur())
		}
		for _, c := range v.Crit {
			sums[c.Class] += c.Ns
		}
		sums[5] += v.GapNs
	}
	n := float64(len(views))
	if n == 0 {
		e.fail("no sampled request traces")
		return
	}
	for i, name := range []string{"wire", "ring", "in_os", "app", "redeem", "gap"} {
		into["crit."+name+"_ns"] = float64(sums[i]) / n
	}
	into["crit.samples"] = n
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
