package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"demikernel/internal/rack"
	"demikernel/internal/reqsched"
	"demikernel/internal/sim"
)

// rack-kv-pareto: rack.Run with 8 hosts x 2 cores behind a ToR placing by
// power-of-2 choices, DARC dispatch on each host, 48 closed-loop UDP
// clients, and bounded-Pareto values up to 64 KiB.
const (
	rackServers  = 8
	rackCores    = 2
	rackClients  = 48
	rackRequests = 1200 // per client
	// rackTable is the value-size table length. The 57 600 requests of an
	// episode hit 51 855 distinct entries, so the sizes a run issues are
	// mostly fresh draws and their mean varies little from seed to seed.
	rackTable    = 1 << 16
	rackMaxValue = 64 << 10
	// rackWarmup is the share of placements before the host window opens.
	rackWarmup = 10
	// rackTraceRequests sizes the separate dtrace-sampled run that yields
	// the critical-path split.
	rackTraceRequests = 150
)

// rackConfig returns the benchmark's rack. With seed 42, 150 requests and
// the default 4096-entry size table it is the committed "power-of-2 + DARC"
// cell of the rack matrix.
func rackConfig(seed uint64, requests, table int) rack.Config {
	cfg := rack.DefaultConfig()
	cfg.Servers = rackServers
	cfg.CoresPerServer = rackCores
	cfg.Clients = rackClients
	cfg.Placer = rack.PowerOfK{K: 2}
	cfg.HostPolicy = reqsched.DARC{Reserved: 1}
	cfg.Seed = seed
	cfg.Workload.Requests = requests
	cfg.Workload.MeanThink = time.Microsecond
	cfg.Workload.MaxSize = rackMaxValue
	cfg.Workload.TableSize = table
	return cfg
}

// spyPlacer delegates to its inner placer and observes placements: the
// first marks the end of set-up, the at-th opens the host window.
type spyPlacer struct {
	rack.Placer
	n, at int
	first time.Time
	win   *hostWindow
}

func (p *spyPlacer) Pick(loads []uint32, rng *sim.Rand) int {
	p.n++
	if p.n == 1 {
		p.first = time.Now()
	}
	if p.n == p.at {
		p.win.begin()
	}
	return p.Placer.Pick(loads, rng)
}

func rackKVPareto(seed uint64, tr *tracer) (*episode, error) {
	e, err := runRack(rackConfig(seed, rackRequests, rackTable))
	if err != nil || tr == nil {
		return e, err
	}
	// Config.Trace appends a trace trailer to sampled frames, which moves
	// virtual time, so the critical path comes from a run of its own.
	cfg := rackConfig(seed, rackTraceRequests, rackTable)
	cfg.Trace = true
	res, err := rack.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("traced rack: %w", err)
	}
	e.traceCounts = values{}
	critical(e, e.traceCounts, res.Tracer)
	return e, nil
}

// runRack runs the rack once and checks that every request completed.
// rack.Run owns its world, so the measurements come from its Result, its
// telemetry, and the placements the ToR asks cfg's placer for. rack.Run
// checks only reply ids: the size of a returned value is not checked.
func runRack(cfg rack.Config) (*episode, error) {
	e := &episode{virt: values{}, counts: values{}}
	var win hostWindow
	attempted := cfg.Clients * cfg.Workload.Requests
	spy := &spyPlacer{Placer: cfg.Placer, at: attempted*rackWarmup/100 + 1, win: &win}
	cfg.Placer = spy
	t0 := time.Now()
	res, err := rack.Run(cfg)
	if err != nil {
		return nil, err
	}
	win.end()
	e.setup = spy.first.Sub(t0)
	e.run = time.Since(t0)

	completed := len(res.ShortLats) + len(res.LongLats)
	e.attempted = attempted
	e.failed = attempted - completed
	if res.EgressDrops != 0 {
		e.fail("switch dropped %d frames", res.EgressDrops)
	}
	// Every request placed before the window opened counts as outside it.
	win.record(e, completed-spy.at+1)
	tel, err := parseTelemetry(res.TelemetryText)
	if err != nil {
		return nil, err
	}
	if live := tel.sum("/merged", "mem.live"); live != 0 {
		e.fail("%d DMA buffers live on the servers after the run", live)
	}

	v := e.virt
	latencies(v, res.ShortLats, rack.Quantile)
	long := values{}
	latencies(long, res.LongLats, rack.Quantile)
	v["long_p99_us"] = long["p99_us"]
	v["long_samples"] = long["samples"]
	v["kops"] = float64(completed) / res.Elapsed.Seconds() / 1e3
	v["elapsed_ms"] = res.Elapsed.Seconds() * 1e3
	// rack.Run hides its nodes, so there is no virtual CPU figure
	// (cpu_ns_per_req) to report.

	all := float64(completed)
	c := e.counts
	c["catnip.tx_frames_per_req"] = float64(tel.sum("/merged", "catnip.tx_frames")) / all
	c["catnip.rx_frames_per_req"] = float64(tel.sum("/merged", "catnip.rx_frames")) / all
	c["catnip.tcp.pure_acks_per_req"] = float64(tel.sum("/merged", "catnip.tcp.pure_acks")) / all
	c["catnip.tcp.retransmits"] = float64(tel.sum("/merged", "catnip.tcp.retransmits"))
	polls := tel.sum("/merged", "sched.polls")
	c["sched.polls_per_req"] = float64(polls) / all
	c["sched.empty_scan_ratio"] = ratio(uint64(tel.sum("/merged", "sched.empty_scans")), uint64(polls))
	c["memory.allocs_per_req"] = float64(tel.sum("/merged", "mem.allocs")) / all
	c["memory.superblocks"] = float64(tel.sum("/merged", "mem.superblocks"))
	c["memory.live_at_end"] = float64(tel.sum("/merged", "mem.live"))
	// Frames the switch handed to server ports but no server stack
	// received were dropped by the device.
	var toServers int64
	for i := 0; i < rackServers; i++ {
		toServers += tel.get("simnet/switch", fmt.Sprintf("switch.port%02d.tx_frames", i))
	}
	c["dpdkdev.ring_full_drops"] = float64(toServers - tel.sum("/merged", "catnip.rx_frames"))
	c["simnet.egress_drops"] = float64(res.EgressDrops)
	c["simnet.queue_depth_max"] = float64(tel.max("simnet/switch", ".eq_peak"))
	peak := 0
	for _, l := range res.MaxLoads {
		peak = max(peak, l)
	}
	c["reqsched.peak_load_max"] = float64(peak)
	lo, hi := res.Placements[0], res.Placements[0]
	for _, p := range res.Placements {
		lo, hi = min(lo, p), max(hi, p)
	}
	c["rack.placement_spread"] = float64(hi) / float64(lo)
	c["rack.resyncs_per_req"] = float64(res.Resyncs) / all
	return e, nil
}

// telemetry is a parsed Result.TelemetryText: section name -> key -> value.
type telemetry map[string]map[string]int64

func parseTelemetry(text string) (telemetry, error) {
	t := telemetry{}
	var cur map[string]int64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== telemetry: ") {
			name := strings.TrimSuffix(strings.TrimPrefix(line, "== telemetry: "), " ==")
			cur = map[string]int64{}
			t[name] = cur
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || cur == nil {
			continue // histograms and blank lines
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry line %q: %w", line, err)
		}
		cur[f[0]] = v
	}
	return t, sc.Err()
}

// sum adds key over every section whose name ends with suffix.
func (t telemetry) sum(suffix, key string) int64 {
	var s int64
	for name, sec := range t {
		if strings.HasSuffix(name, suffix) {
			s += sec[key]
		}
	}
	return s
}

func (t telemetry) get(section, key string) int64 { return t[section][key] }

// max is the largest value in section among keys ending with suffix.
func (t telemetry) max(section, suffix string) int64 {
	var m int64
	for k, v := range t[section] {
		if strings.HasSuffix(k, suffix) && v > m {
			m = v
		}
	}
	return m
}
