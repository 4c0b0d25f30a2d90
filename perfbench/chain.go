package main

import (
	"fmt"
	"time"

	"demikernel/internal/apps/chain"
	"demikernel/internal/catmem"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/dtrace"
	"demikernel/internal/sim"
)

// chain-catmem: one closed-loop client drives relay -> cache -> KV over
// catmem shared-memory rings with 64 B values. No NIC, TCP or wire: each
// request crosses four nodes by zero-copy ring handoff.
const (
	chainRounds  = 20000 // measured requests
	chainWarmup  = 64    // unmeasured requests (bench's chain warm-up)
	chainValSize = 64
	chainKeys    = 16
)

func chainCatmem(seed uint64, tr *tracer) (*episode, error) {
	// The chain has no random input: the seed drives only the engine, and
	// the client's key cycle makes every key miss once, within warm-up.
	return runChain(seed, chainRounds, tr)
}

// runChain builds the four-node chain, drives the client through rounds
// measured requests, and checks the drained world for leaks. chain.Client
// checks every reply byte against the store's deterministic content. A
// traced run (tr != nil) also samples requests end to end through every
// stage with dtrace. Seed 77 with 2000 rounds is the committed "Service
// chain" catmem row.
func runChain(seed uint64, rounds int, tr *tracer) (*episode, error) {
	e := &episode{virt: values{}, counts: values{}}
	t0 := time.Now()
	eng := sim.NewEngine(seed)
	region := catmem.NewRegion(eng)
	kv := region.New(eng.NewNode("kv"))
	cache := region.New(eng.NewNode("cache"))
	relay := region.New(eng.NewNode("relay"))
	cli := region.New(eng.NewNode("client"))
	libs := []*catmem.LibOS{kv, cache, relay, cli}
	var dt *dtrace.Tracer
	if tr != nil {
		dt = dtrace.New(dtrace.DefaultConfig())
	}
	for _, l := range libs {
		l.AttachDTrace(dt.Hop(l.Node().Name()))
	}
	stage := func(l *catmem.LibOS) chain.Trace {
		return chain.Trace{Hop: dt.Hop(l.Node().Name()), Clock: l.Node()}
	}
	addrs := [3]core.Addr{{Port: 1}, {Port: 2}, {Port: 3}} // relay, cache, kv

	var kvSt, cacheSt, relaySt chain.Stats
	var errs []error
	keep := func(who string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", who, err))
		}
	}
	eng.Spawn(kv.Node(), func() {
		keep("kv", chain.KV(traced(tr, kv, false), addrs[2], true, chainKeys, chainValSize, &kvSt, stage(kv)))
	})
	eng.Spawn(cache.Node(), func() {
		keep("cache", chain.Cache(traced(tr, cache, false), addrs[1], addrs[2], true, &cacheSt, stage(cache)))
	})
	eng.Spawn(relay.Node(), func() {
		keep("relay", chain.Relay(traced(tr, relay, false), addrs[0], addrs[1], true, &relaySt, stage(relay)))
	})

	// The window opens as the first measured request is pushed and closes
	// when the client returns.
	var win hostWindow
	var busyMark, busyEnd time.Duration
	var virtMark, virtEnd sim.Time
	busy := func() time.Duration {
		var b time.Duration
		for _, l := range libs {
			b += l.Node().Busy()
		}
		return b
	}
	spy := &pushSpy{LibOS: traced(tr, cli, true), at: chainWarmup + 1, hook: func() {
		virtMark, busyMark = cli.Node().Now(), busy()
		win.begin()
	}}
	var res chain.Result
	eng.Spawn(cli.Node(), func() {
		var err error
		res, err = chain.Client(spy, addrs[0], true, rounds, chainWarmup, chainKeys, chainValSize, cli.Node(), stage(cli))
		win.end()
		virtEnd, busyEnd = cli.Node().Now(), busy()
		keep("client", err)
	})
	e.setup = time.Since(t0)
	runStart := time.Now()
	eng.Run()
	e.run = time.Since(runStart)
	e.events = eng.EventsRun()

	e.attempted = rounds + chainWarmup
	e.failed = rounds - res.Rounds
	for _, err := range errs {
		e.fail("%v", err)
	}
	win.record(e, res.Rounds)
	if res.Rounds == 0 {
		return e, nil
	}
	if n := region.Heap().LiveObjects(); n != 0 {
		e.fail("%d shared-memory buffers live after drain", n)
	}
	for _, l := range libs {
		if n := l.Tokens().Outstanding(); n != 0 {
			e.fail("%s: %d qtokens outstanding after drain", l.Node().Name(), n)
		}
	}

	v := e.virt
	latencies(v, res.RTTs, histQuantile)
	v["long_p99_us"] = v["p99_us"] // one request class
	reqs := float64(res.Rounds)
	v["kops"] = reqs / virtEnd.Sub(virtMark).Seconds() / 1e3
	v["cpu_ns_per_req"] = float64(busyEnd-busyMark) / reqs
	v["relay_ns_per_req"] = float64(relay.Node().Busy()) / float64(e.attempted)

	all := float64(e.attempted)
	c := e.counts
	c["sim.events_per_req"] = float64(eng.EventsRun()) / all
	var pushes, stalls uint64
	for _, l := range libs {
		s := l.Stats()
		pushes += s.Pushes
		stalls += s.Stalls
	}
	hs := region.Heap().Stats()
	c["catmem.pushes_per_req"] = float64(pushes) / all
	c["catmem.ring_full"] = float64(stalls)
	c["memory.allocs_per_req"] = float64(hs.Allocs) / all
	c["memory.superblocks"] = float64(hs.Superblocks)
	c["memory.live_at_end"] = float64(hs.Live)
	if tr != nil {
		e.traceCounts, e.traceTimes = tr.summarize(e.attempted)
	}
	if dt != nil {
		critical(e, e.traceCounts, dt)
	}
	return e, nil
}

// pushSpy calls hook just before the at-th push (counting from 1).
type pushSpy struct {
	demi.LibOS
	n, at int
	hook  func()
}

func (p *pushSpy) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	p.n++
	if p.n == p.at {
		p.hook()
	}
	return p.LibOS.Push(qd, sga)
}
