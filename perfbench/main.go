// Command perfbench is the repository benchmark. It runs one named workload
// on the simulated testbed for a fixed host-time budget and prints, as the
// last line of standard output, one JSON object with the run's correctness
// verdict and its metrics.
//
// A run repeats identical episodes: each builds a fresh simulated world from
// the seed, drives a fixed closed-loop request count through it, checks
// every reply, drains the world and checks for leaks. Virtual-time metrics
// come from the first episode and must repeat exactly in every later one;
// host metrics are medians over episodes.
//
//	perfbench --workload echo-tcp-32 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced episodes (the difference in request rate
// is the tracing overhead), checks that tracing changed no virtual metric
// or count, runs the layer microbenchmarks, and prints the per-layer
// metrics. Spans of the last traced episode are written under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minEpisodes keeps medians meaningful even when one episode outlasts the
// whole time budget.
const minEpisodes = 3

func main() {
	// Simulated nodes run one at a time under the engine's baton, so a
	// second proc adds no parallelism. It only moves baton handoffs between
	// OS threads. On a shared 2-vCPU host, four back-to-back 10 s runs of
	// chain-catmem read 59k-79k req/s on two procs and 77k-79k on one.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: echo-tcp-32, rack-kv-pareto or chain-catmem")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(*name, wl, *seed, budget)
	} else {
		rep, err = plainRun(wl, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	seen := map[string]bool{}
	for _, p := range rep.problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, p)
		}
	}
	out, err := json.Marshal(rep.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's verdict and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) output() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics}
}

// episodes runs ep until budget is spent (at least minEpisodes times),
// collecting a GC before each so one episode's garbage is not billed to
// the next.
func episodes(budget time.Duration, ep func(i int) error) error {
	start := time.Now()
	for i := 0; i < minEpisodes || time.Since(start) < budget; i++ {
		runtime.GC()
		if err := ep(i); err != nil {
			return err
		}
	}
	return nil
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(wl workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	var first *episode
	var rates, allocs, bytes, setups []float64
	err := episodes(budget, func(i int) error {
		ref := refSeconds()
		e, err := wl(seed, nil)
		if err != nil {
			return err
		}
		rep.attempted += e.attempted
		rep.failed += e.failed
		rep.problems = append(rep.problems, e.problems...)
		if first == nil {
			first = e
		} else if d := first.virt.diff(e.virt); d != "" {
			rep.fail("episode %d changed virtual metric %s", i, d)
		}
		rates = append(rates, e.hostRate()*ref)
		allocs = append(allocs, float64(e.mallocs)/float64(e.windowReqs))
		bytes = append(bytes, float64(e.allocBytes)/float64(e.windowReqs))
		setups = append(setups, e.setup.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("host_req_per_ref", "req/ref", median(rates))
	rep.set("host_allocs_per_req", "allocs", median(allocs))
	rep.set("host_alloc_bytes_per_req", "B", median(bytes))
	rep.set("setup_s", "s", median(setups))
	v := first.virt
	rep.set("virt_kops", "kops/s", v["kops"])
	rep.set("virt_p50_us", "virt_us", v["p50_us"])
	rep.set("virt_p99_us", "virt_us", v["p99_us"])
	rep.set("virt_p999_us", "virt_us", v["p999_us"])
	rep.set("virt_long_p99_us", "virt_us", v["long_p99_us"])
	rep.set("success_ratio", "ratio", 1-float64(rep.failed)/float64(rep.attempted))
	if n := v["samples_beyond_p999"]; n < 10 {
		rep.fail("only %.0f latency samples beyond p99.9 (need >= 10)", n)
	}
	return rep, nil
}

// refSeconds returns the host time of a fixed reference computation (random
// map updates, small allocations and a sort; about 7 ms). On a host whose
// cores are shared, speed can swing by half within a minute; a request rate
// taken over wall time against this reference, timed just before, moves
// with the program's cost instead. Run it after a GC, as episodes does, so
// that it allocates into the same small heap every time.
func refSeconds() float64 {
	t0 := time.Now()
	m := map[int]int{}
	var xs []int
	x := uint64(12345)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[int(x%4096)] += i
		if i%8 == 0 {
			xs = append(xs, int(x%100000))
			b := make([]byte, 64)
			b[0] = byte(x)
			refSink += int(b[0])
		}
	}
	sort.Ints(xs)
	refSink += len(m) + xs[len(xs)/2]
	return time.Since(t0).Seconds()
}

// refSink keeps the reference computation's results live.
var refSink int

// tracedRun alternates untraced and traced episodes, checks that tracing
// only observed, then spends the rest of the budget on microbenchmarks.
func tracedRun(name string, wl workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	var plain, traced *episode
	var plainRates, tracedRates, nsPerEvent []float64
	times := map[string][]float64{}
	var lastTrace *tracer
	err := episodes(budget*6/10, func(i int) error {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer()
		}
		e, err := wl(seed, tr)
		if err != nil {
			return err
		}
		rep.attempted += e.attempted
		rep.failed += e.failed
		rep.problems = append(rep.problems, e.problems...)
		if plain == nil {
			plain = e
		}
		if d := plain.virt.diff(e.virt); d != "" {
			rep.fail("episode %d (traced: %v) changed virtual metric %s", i, tr != nil, d)
		}
		if d := plain.counts.diff(e.counts); d != "" {
			rep.fail("episode %d (traced: %v) changed count %s", i, tr != nil, d)
		}
		if tr == nil {
			plainRates = append(plainRates, e.hostRate())
			if e.events > 0 {
				nsPerEvent = append(nsPerEvent, float64(e.run)/float64(e.events))
			}
			return nil
		}
		tracedRates = append(tracedRates, e.hostRate())
		if traced == nil {
			traced = e
		} else if d := traced.traceCounts.diff(e.traceCounts); d != "" {
			rep.fail("traced episode %d changed trace count %s", i, d)
		}
		for k, v := range e.traceTimes {
			times[k] = append(times[k], v)
		}
		lastTrace = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range perLayer {
		rep.set(n, unitOf(n), 0) // layers a workload bypasses read 0
	}
	rep.set("virt_cpu_ns_per_req", "virt_ns", plain.virt["cpu_ns_per_req"]) // 0 on rack
	for _, vs := range []values{plain.counts, traced.traceCounts} {
		for k, v := range vs {
			rep.set(k, unitOf(k), v)
		}
	}
	for k, v := range times {
		rep.set(k, unitOf(k), median(v))
	}
	rep.set("sim.host_ns_per_event", "ns", median(nsPerEvent))
	// A workload whose traced episodes record no spans (rack, which cannot
	// be wrapped) has no tracing cost to report: trace.* stay 0.
	traceSpans := lastTrace != nil && len(lastTrace.spans) > 0
	if traceSpans {
		pr, tr := median(plainRates), median(tracedRates)
		rep.set("trace.untraced_req_per_s", "req/s", pr)
		rep.set("trace.traced_req_per_s", "req/s", tr)
		rep.set("trace.overhead_ratio", "ratio", 1-tr/pr)
	}

	for _, mb := range micros {
		ns, allocs := mb.measure(budget * 4 / 10 / time.Duration(len(micros)))
		rep.set(mb.name+"_ns", "ns", ns)
		rep.set(mb.name+"_allocs", "allocs", allocs)
	}
	for name := range rep.metrics {
		if !isPerLayer(name) {
			delete(rep.metrics, name)
		}
	}
	if traceSpans {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.tsv", name, seed))
		if err := lastTrace.write(path); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// perLayer names every per-layer metric a traced run prints; BENCHMARK.json
// lists the same names.
var perLayer = []string{
	"virt_cpu_ns_per_req",
	"sim.events_per_req", "sim.host_ns_per_event",
	"pdpix.wait_any.tokens_per_call", "pdpix.calls_per_req",
	"pdpix.wait_any.host_self_ns", "pdpix.wait.host_self_ns",
	"pdpix.push.host_ns", "pdpix.pop.host_ns", "app.host_self_ns",
	"catnip.tx_frames_per_req", "catnip.rx_frames_per_req",
	"catnip.tcp.pure_acks_per_req", "catnip.tcp.retransmits",
	"memory.allocs_per_req", "memory.superblocks", "memory.live_at_end",
	"dpdkdev.ring_full_drops", "simnet.egress_drops", "simnet.queue_depth_max",
	"sched.polls_per_req", "sched.empty_scan_ratio",
	"reqsched.peak_load_max", "rack.placement_spread", "rack.resyncs_per_req",
	"catmem.pushes_per_req", "catmem.ring_full",
	"crit.wire_ns", "crit.ring_ns", "crit.in_os_ns", "crit.app_ns", "crit.redeem_ns", "crit.gap_ns", "crit.samples",
	"trace.untraced_req_per_s", "trace.traced_req_per_s", "trace.overhead_ratio",
}

func isPerLayer(name string) bool {
	for _, n := range perLayer {
		if n == name {
			return true
		}
	}
	for _, mb := range micros {
		if name == mb.name+"_ns" || name == mb.name+"_allocs" {
			return true
		}
	}
	return false
}

// unitOf names the unit of a per-layer metric from its name.
func unitOf(name string) string {
	switch {
	case strings.HasPrefix(name, "virt_"),
		strings.HasPrefix(name, "crit.") && strings.HasSuffix(name, "_ns"):
		return "virt_ns"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_req_per_s"):
		return "req/s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_spread"):
		return "ratio"
	}
	return "count"
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
