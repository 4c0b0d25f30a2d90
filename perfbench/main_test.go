package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/rack"
)

// corruptNth flips the first byte of the nth request the echo server pops,
// so the server echoes a wrong reply.
type corruptNth struct {
	demi.LibOS
	n int
}

func (c *corruptNth) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	i, ev, err := c.LibOS.WaitAny(qts, timeout)
	if err == nil && ev.Err == nil && ev.Op == core.OpPop && len(ev.SGA.Segs) > 0 {
		if c.n--; c.n == 0 {
			ev.SGA.Segs[0].Bytes()[0] ^= 0xff
		}
	}
	return i, ev, err
}

func smallEcho(seed uint64) echoConfig {
	return echoConfig{seed: seed, clients: 4, rounds: 40, warmup: 4, stagger: echoStagger}
}

func TestCorruptedReplyIsAFailure(t *testing.T) {
	cfg := smallEcho(1)
	e, err := runEcho(cfg, nil)
	if err != nil || e.failed != 0 || len(e.problems) != 0 {
		t.Fatalf("clean run: err %v, failed %d, problems %v", err, e.failed, e.problems)
	}
	cfg.serverOS = func(l demi.LibOS) demi.LibOS { return &corruptNth{LibOS: l, n: 25} }
	e, err = runEcho(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.failed != 1 {
		t.Fatalf("corrupted run: %d failed requests of %d, want 1", e.failed, e.attempted)
	}
}

// committedRow returns the row of the named BENCH_results.json table whose
// leading cells match key.
func committedRow(t *testing.T, title string, key ...string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCH_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.Title != title {
			continue
		}
	rows:
		for _, r := range tb.Rows {
			for i, k := range key {
				if r[i] != k {
					continue rows
				}
			}
			m := map[string]string{}
			for i, h := range tb.Header {
				m[h] = r[i]
			}
			return m
		}
	}
	t.Fatalf("no row %v in table %q", key, title)
	return nil
}

func check1(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: harness gives %s, committed table has %s", what, got, want)
	}
}

// TestAnchors reproduces the committed result rows at each artifact's own
// size and seed, so the harness measures the system the tables describe.
func TestAnchors(t *testing.T) {
	t.Run("fig9-catnip-tcp-32", func(t *testing.T) {
		e, err := runEcho(echoConfig{seed: 132, clients: 32, rounds: 300, warmup: 30}, nil)
		if err != nil || len(e.problems) != 0 || e.failed != 0 {
			t.Fatalf("err %v, failed %d, problems %v", err, e.failed, e.problems)
		}
		row := committedRow(t, "Figure 9: latency vs throughput (64B echo)", "Catnip (TCP)", "32")
		check1(t, "kops/s", fmt.Sprintf("%.0f", e.virt["fig9_kops"]), row["kops/s"])
		check1(t, "avg", fmt.Sprintf("%.1f", e.virt["avg_us"]), row["avg lat (µs)"])
		check1(t, "p99", fmt.Sprintf("%.1f", e.virt["p99_us"]), row["p99 (µs)"])
	})
	t.Run("rack-power-of-2-darc", func(t *testing.T) {
		e, err := runRack(rackConfig(42, 150, rack.DefaultWorkload().TableSize))
		if err != nil || len(e.problems) != 0 || e.failed != 0 {
			t.Fatalf("err %v, failed %d, problems %v", err, e.failed, e.problems)
		}
		row := committedRow(t, "Rack: two-layer scheduling, ToR placement x host dispatch", "power-of-2", "DARC")
		check1(t, "short p50", fmt.Sprintf("%.1f", e.virt["p50_us"]), row["short p50 (µs)"])
		check1(t, "short p99", fmt.Sprintf("%.1f", e.virt["p99_us"]), row["short p99 (µs)"])
		check1(t, "short p999", fmt.Sprintf("%.1f", e.virt["p999_us"]), row["short p999 (µs)"])
		check1(t, "long p99", fmt.Sprintf("%.1f", e.virt["long_p99_us"]), row["long p99 (µs)"])
		check1(t, "elapsed", fmt.Sprintf("%.3f", e.virt["elapsed_ms"]), row["elapsed (ms)"])
	})
	t.Run("chain-catmem", func(t *testing.T) {
		e, err := runChain(77, 2000, nil)
		if err != nil || len(e.problems) != 0 || e.failed != 0 {
			t.Fatalf("err %v, failed %d, problems %v", err, e.failed, e.problems)
		}
		row := committedRow(t, "Service chain: client -> relay -> cache -> KV, intra-host transports", "catmem")
		check1(t, "rtt avg", fmt.Sprintf("%.1f", e.virt["avg_us"]), row["rtt avg (µs)"])
		check1(t, "rtt p99", fmt.Sprintf("%.1f", e.virt["p99_us"]), row["rtt p99 (µs)"])
		check1(t, "relay ns/req", fmt.Sprintf("%.0f", e.virt["relay_ns_per_req"]), row["relay ns/req"])
	})
}

// TestTracingOnlyObserves runs the workloads traced by a wrapping libOS at a
// small size untraced twice and traced once: virtual metrics and counts
// must repeat exactly. rack.Run cannot be wrapped, and its own tracing moves
// virtual time, so rack has no traced case here.
func TestTracingOnlyObserves(t *testing.T) {
	small := map[string]workload{
		"echo": func(seed uint64, tr *tracer) (*episode, error) { return runEcho(smallEcho(seed), tr) },
		"chain": func(seed uint64, tr *tracer) (*episode, error) {
			return runChain(seed, 2000, tr)
		},
	}
	for name, wl := range small {
		t.Run(name, func(t *testing.T) {
			var eps []*episode
			for _, tr := range []*tracer{nil, nil, newTracer()} {
				e, err := wl(7, tr)
				if err != nil || len(e.problems) != 0 || e.failed != 0 {
					t.Fatalf("err %v, failed %d, problems %v", err, e.failed, e.problems)
				}
				eps = append(eps, e)
			}
			for i, e := range eps[1:] {
				if d := eps[0].virt.diff(e.virt); d != "" {
					t.Errorf("run %d: virtual metric %s", i+1, d)
				}
				if d := eps[0].counts.diff(e.counts); d != "" {
					t.Errorf("run %d: count %s", i+1, d)
				}
			}
		})
	}
}
