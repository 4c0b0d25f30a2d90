package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"demikernel/internal/apps/echo"
	"demikernel/internal/bench"
	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

// echo-tcp-32: Figure 9's saturation point. 32 closed-loop clients, each on
// its own simulated host, echo 64 B over Catnip TCP through dpdkdev and the
// switch to one server core whose wait_any spans 33 tokens.
const (
	echoClients = 32
	echoMsgSize = 64
	echoRounds  = 1000 // measured rounds per client
	echoWarmup  = 100  // unmeasured rounds per client
	// echoStagger bounds each client's seeded start delay, so the seed
	// shapes how the closed loops interleave.
	echoStagger = 5 * time.Microsecond
	// drainFor bounds how long the world may run after the last client
	// finishes: long enough for TIME_WAIT (2 x MSL) and every timer.
	drainFor = 100 * time.Millisecond
)

var (
	echoServerIP = wire.IPAddr{10, 9, 0, 1}
	echoClientIP = wire.IPAddr{10, 9, 0, 2}
	echoPort     = uint16(7000)
)

// echoConfig sizes one echo world. The zero stagger with seed 132, 32
// clients and 300+30 rounds is Figure 9's Catnip (TCP) x 32 cell.
type echoConfig struct {
	seed                    uint64
	clients, rounds, warmup int
	stagger                 time.Duration
	// serverOS, when set, wraps the server's libOS (tests corrupt
	// replies through it).
	serverOS func(demi.LibOS) demi.LibOS
}

func echoTCP32(seed uint64, tr *tracer) (*episode, error) {
	return runEcho(echoConfig{seed: seed, clients: echoClients, rounds: echoRounds,
		warmup: echoWarmup, stagger: echoStagger}, tr)
}

// runEcho builds the echo world, drives every client to completion, checks
// every reply byte, drains the world and checks for leaks.
func runEcho(cfg echoConfig, tr *tracer) (*episode, error) {
	e := &episode{virt: values{}, counts: values{}}
	t0 := time.Now()
	tb := bench.NewTestbed(cfg.seed, bench.SwitchEth())
	sys := bench.SysCatnipTCP()
	server := tb.NewStack(sys, "server", echoServerIP)
	stacks := []*bench.Stack{server}
	for i := 0; i < cfg.clients; i++ {
		ip := echoClientIP
		ip[2] = byte(1 + i/250)
		ip[3] = byte(2 + i%250)
		stacks = append(stacks, tb.NewStack(sys, fmt.Sprintf("client%d", i), ip))
	}
	tb.SeedARP()
	addr := core.Addr{IP: echoServerIP, Port: echoPort}

	srv := &listenSpy{LibOS: traced(tr, server.OS, false), conns: cfg.clients}
	var srvOS demi.LibOS = srv
	if cfg.serverOS != nil {
		srvOS = cfg.serverOS(srv)
	}
	var srvErr error
	tb.Eng.Spawn(server.Node, func() {
		srvErr = echo.Server(srvOS, echo.ServerConfig{Addr: addr, MaxConns: cfg.clients + 4})
	})

	// Post-warm-up window: it opens when every client could have finished
	// its warm-up and closes when the last client finishes.
	var win hostWindow
	warmTarget := cfg.clients * cfg.warmup
	completed, finished := 0, 0
	var virtMark, virtEnd sim.Time
	var busyMark, busyEnd time.Duration
	busy := func() time.Duration {
		var b time.Duration
		for _, st := range stacks {
			b += st.Node.Busy()
		}
		return b
	}
	onReply := func(n *sim.Node) {
		completed++
		if completed == warmTarget {
			virtMark, busyMark = n.Now(), busy()
			win.begin()
		}
	}

	rng := sim.NewRand(cfg.seed ^ 0xec40)
	var lats []time.Duration
	var clientErrs []error
	checks := make([]*echoCheck, cfg.clients)
	for i, st := range stacks[1:] {
		st := st
		delay := time.Duration(0)
		if cfg.stagger > 0 {
			delay = time.Duration(rng.Uint64() % uint64(cfg.stagger))
		}
		chk := &echoCheck{LibOS: traced(tr, st.OS, true), node: st.Node, onReply: onReply}
		checks[i] = chk
		tb.Eng.Spawn(st.Node, func() {
			if delay > 0 && !st.Node.Park(st.Node.Now().Add(delay)) {
				return
			}
			res, err := echo.Client(chk, addr, echoMsgSize, cfg.rounds, cfg.warmup, st.Node)
			if err != nil {
				clientErrs = append(clientErrs, err)
			}
			lats = append(lats, res.RTTs...)
			finished++
			if finished == cfg.clients {
				win.end()
				virtEnd, busyEnd = st.Node.Now(), busy()
				// Drain: the server closes the listener after its last
				// connection; every timer then runs out.
				tb.Eng.At(virtEnd.Add(drainFor), nil, tb.Eng.Stop)
			}
		})
	}
	e.setup = time.Since(t0)
	runStart := time.Now()
	tb.Eng.Run()
	e.run = time.Since(runStart)
	e.events = tb.Eng.EventsRun()

	// Outputs: every request attempted either came back byte-exact or is
	// a failure.
	e.attempted = cfg.clients * (cfg.rounds + cfg.warmup)
	good := 0
	for _, c := range checks {
		good += c.good
	}
	e.failed = e.attempted - good
	for _, err := range clientErrs {
		e.fail("client: %v", err)
	}
	if srvErr != nil && !(srv.drained && errors.Is(srvErr, core.ErrBadQDesc)) {
		e.fail("server: %v", srvErr)
	}
	win.record(e, completed-warmTarget)
	if finished != cfg.clients {
		e.fail("%d of %d clients finished", finished, cfg.clients)
		return e, nil
	}

	// Leaks, after the drain.
	for _, st := range stacks {
		if n := st.OS.Heap().LiveObjects(); n != 0 {
			e.fail("%s: %d DMA buffers live after drain", st.Node.Name(), n)
		}
		if n := st.OS.(demi.NetOS).Tokens().Outstanding(); n != 0 {
			e.fail("%s: %d qtokens outstanding after drain", st.Node.Name(), n)
		}
	}

	v := e.virt
	latencies(v, lats, histQuantile)
	v["long_p99_us"] = v["p99_us"] // one request class
	reqs := float64(e.windowReqs)
	v["kops"] = reqs / virtEnd.Sub(virtMark).Seconds() / 1e3
	v["cpu_ns_per_req"] = float64(busyEnd-busyMark) / reqs
	// Figure 9's own throughput definition, for the anchor test.
	v["fig9_kops"] = float64(len(lats)) / virtEnd.Sub(0).Seconds() / 1e3

	all := float64(good)
	c := e.counts
	c["sim.events_per_req"] = float64(tb.Eng.EventsRun()) / all
	var tx, rx, acks, retx, polls, empty, allocs uint64
	var sbs, live int
	for _, st := range stacks {
		l := st.OS.(*catnip.LibOS)
		s := l.Stats()
		tx += s.TxFrames
		rx += s.RxFrames
		acks += s.PureAcks
		retx += s.TCPRetransmits
		ss := l.SchedStats()
		polls += ss.Polls
		empty += ss.EmptyScans
		hs := l.Heap().Stats()
		allocs += hs.Allocs
		sbs += hs.Superblocks
		live += hs.Live
	}
	c["catnip.tx_frames_per_req"] = float64(tx) / all
	c["catnip.rx_frames_per_req"] = float64(rx) / all
	c["catnip.tcp.pure_acks_per_req"] = float64(acks) / all
	c["catnip.tcp.retransmits"] = float64(retx)
	c["sched.polls_per_req"] = float64(polls) / all
	c["sched.empty_scan_ratio"] = ratio(empty, polls)
	c["memory.allocs_per_req"] = float64(allocs) / all
	c["memory.superblocks"] = float64(sbs)
	c["memory.live_at_end"] = float64(live)
	netCounts(c, tb)
	if tr != nil {
		e.traceCounts, e.traceTimes = tr.summarize(good)
	}
	return e, nil
}

// netCounts adds the device and switch counts of a testbed.
func netCounts(c values, tb *bench.Testbed) {
	var ringFull uint64
	for _, p := range tb.Ports {
		s := p.Stats()
		ringFull += s.RxRingFull + s.RxNoMbuf
	}
	var drops uint64
	peak := 0
	for _, p := range tb.Sw.Ports() {
		s := p.Stats()
		drops += s.EgressDrops + s.RxDropped
		if s.EgressPeak > peak {
			peak = s.EgressPeak
		}
	}
	c["dpdkdev.ring_full_drops"] = float64(ringFull)
	c["simnet.egress_drops"] = float64(drops)
	c["simnet.queue_depth_max"] = float64(peak)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// listenSpy drains the echo server: once the server has closed all conns
// connections and redeemed every other token, so that only its accept is
// left to wait on, it closes the listener. The accept then fails and
// echo.Server returns (with ErrBadQDesc from its next Accept).
type listenSpy struct {
	demi.LibOS
	lqd     core.QDesc
	conns   int
	drained bool
}

func (s *listenSpy) Listen(qd core.QDesc, backlog int) error {
	s.lqd = qd
	return s.LibOS.Listen(qd, backlog)
}

func (s *listenSpy) Close(qd core.QDesc) error {
	s.conns--
	return s.LibOS.Close(qd)
}

func (s *listenSpy) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	if s.conns == 0 && len(qts) == 1 && !s.drained {
		s.drained = true
		if err := s.LibOS.Close(s.lqd); err != nil {
			return -1, core.QEvent{}, err
		}
	}
	return s.LibOS.WaitAny(qts, timeout)
}

// echoCheck compares every byte an echo client pops with the bytes it
// pushed. A request counts as good once its whole reply has arrived
// byte-exact; echo.Client itself checks only reply lengths.
type echoCheck struct {
	demi.LibOS
	node    *sim.Node
	onReply func(*sim.Node)
	want    []byte // pushed bytes not yet echoed back
	got     int    // bytes of want already matched
	bad     bool   // the current request's reply differed
	pop     core.QToken
	good    int
}

func (c *echoCheck) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	n := len(c.want)
	for _, b := range sga.Segs {
		c.want = append(c.want, b.Bytes()...)
	}
	qt, err := c.LibOS.Push(qd, sga)
	if err != nil {
		c.want = c.want[:n]
	}
	return qt, err
}

func (c *echoCheck) Pop(qd core.QDesc) (core.QToken, error) {
	qt, err := c.LibOS.Pop(qd)
	c.pop = qt
	return qt, err
}

func (c *echoCheck) Wait(qt core.QToken) (core.QEvent, error) {
	ev, err := c.LibOS.Wait(qt)
	if err != nil || qt != c.pop || ev.Err != nil {
		return ev, err
	}
	for _, b := range ev.SGA.Segs {
		p := b.Bytes()
		rest := c.want[c.got:]
		if len(p) > len(rest) || !bytes.Equal(p, rest[:len(p)]) {
			c.bad = true
		}
		c.got += min(len(p), len(rest))
	}
	if c.got == len(c.want) {
		if !c.bad {
			c.good++
		}
		c.onReply(c.node)
		c.want, c.got, c.bad = c.want[:0], 0, false
	}
	return ev, err
}
