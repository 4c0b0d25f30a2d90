package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"demikernel/internal/bench"
	"demikernel/internal/catmem"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/reqsched"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

// A micro is one layer microbenchmark. Each calls only exported functions,
// with inputs shaped like the workload its metric maps to, and reports host
// ns and Go heap allocations per operation.
type micro struct {
	name string
	// batch runs n operations and returns the host time and heap
	// allocations of the part that is the operation itself.
	batch func(n int) (time.Duration, uint64)
}

var micros = []micro{
	{"sim.event", timed(simEvent)},
	{"sim.handoff", simHandoff},
	{"core.token", timed(coreToken)},
	{"core.wait_any_65", timed(coreWaitAny65)},
	{"catnip.egress", catnipEgress},
	{"catnip.ingress", catnipIngress},
	{"wire.checksum_64B", timed(checksum(64))},
	{"wire.checksum_64KiB", timed(checksum(64 << 10))},
	{"wire.parse_tcp", timed(parseTCP)},
	{"wire.parse_udp", timed(parseUDP)},
	{"memory.alloc_free_64B", timed(allocFree(64))},
	{"memory.alloc_free_64KiB", timed(allocFree(64 << 10))},
	{"dpdkdev.flow_hash", timed(flowHash)},
	{"reqsched.submit", timed(reqschedSubmit)},
	{"catmem.push_pop", timed(catmemPushPop)},
}

// measure sizes a batch to about 2 ms, then runs batches for budget and
// returns the median ns per operation and the fewest allocations per
// operation any batch made.
func (m micro) measure(budget time.Duration) (ns, allocs float64) {
	n := 1
	for n < 1<<22 {
		if d, _ := m.batch(n); d > 2*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	allocs = -1
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		d, a := m.batch(n)
		per = append(per, float64(d)/float64(n))
		if x := float64(a) / float64(n); allocs < 0 || x < allocs {
			allocs = x
		}
	}
	sort.Float64s(per)
	return per[len(per)/2], allocs
}

// timed times a whole batch function, with set-up inside it counted.
// Set-up is small against the 2 ms batches measure sizes.
func timed(op func(n int)) func(n int) (time.Duration, uint64) {
	return func(n int) (time.Duration, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		op(n)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		return d, m1.Mallocs - m0.Mallocs
	}
}

// simEvent schedules and runs events through Engine.At and Run with a heap
// about as deep as echo-tcp-32 keeps (one pending event per host).
func simEvent(n int) {
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < n; {
		for k := 0; k < 32 && i < n; k, i = k+1, i+1 {
			eng.At(eng.Now().Add(time.Duration(k+1)), nil, fn)
		}
		eng.Run()
	}
}

// simHandoff passes the baton between two nodes that wake each other and
// park: one Park/resume per operation, as a request crossing nodes does.
func simHandoff(n int) (time.Duration, uint64) {
	eng := sim.NewEngine(1)
	a, b := eng.NewNode("a"), eng.NewNode("b")
	eng.Spawn(a, func() {
		for i := 0; i < n/2; i++ {
			eng.At(a.Now(), b, nil)
			a.Park(sim.Infinity)
		}
		eng.Stop()
	})
	eng.Spawn(b, func() {
		for {
			eng.At(b.Now(), a, nil)
			if !b.Park(sim.Infinity) {
				return
			}
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	eng.Run()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// coreToken mints, completes and redeems one qtoken.
func coreToken(n int) {
	t := core.NewTokenTable()
	for i := 0; i < n; i++ {
		op := t.New()
		op.Complete(core.QEvent{Op: core.OpPop})
		t.TryTake(op.Token())
	}
}

// idleRunner is a Runner with nothing to run; WaitAny never reaches it
// because one of its tokens is always complete.
type idleRunner struct{}

func (idleRunner) Step() bool                   { return false }
func (idleRunner) Block(deadline sim.Time) bool { return true }
func (idleRunner) Now() sim.Time                { return 0 }

// coreWaitAny65 redeems one completed token out of a 65-token wait set,
// the echo server's shape under 32 clients: its accept plus a pop and a
// reply push per client (the traced run measures about 68 on average).
func coreWaitAny65(n int) {
	t := core.NewTokenTable()
	w := core.Waiter{Table: t, Runner: idleRunner{}}
	ops := make([]*core.Op, 65)
	qts := make([]core.QToken, 65)
	for i := range ops {
		ops[i] = t.New()
		qts[i] = ops[i].Token()
	}
	for i := 0; i < n; i++ {
		k := i * 7 % 65
		ops[k].Complete(core.QEvent{Op: core.OpPop})
		w.WaitAny(qts, -1)
		ops[k] = t.New()
		qts[k] = ops[k].Token()
	}
}

func checksum(size int) func(n int) {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(wire.Checksum(b))
		}
	}
}

var sink uint64

var (
	microSrc = wire.IPAddr{10, 9, 0, 2}
	microDst = wire.IPAddr{10, 9, 0, 1}
)

// parseTCP parses a 64 B echo data segment.
func parseTCP(n int) {
	h := wire.TCPHeader{SrcPort: 40000, DstPort: 7000, Seq: 1, Ack: 1, Flags: 0x18, Window: 65535}
	seg := make([]byte, h.MarshalLen()+64)
	h.Marshal(seg, microSrc, microDst, seg[h.MarshalLen():])
	for i := 0; i < n; i++ {
		_, p, err := wire.ParseTCP(seg, microSrc, microDst)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(p))
	}
}

// parseUDP parses a 12 B rack GET datagram.
func parseUDP(n int) {
	h := wire.UDPHeader{SrcPort: 40000, DstPort: 7300, Length: wire.UDPHeaderLen + 12}
	dg := make([]byte, wire.UDPHeaderLen+12)
	h.Marshal(dg, microSrc, microDst, dg[wire.UDPHeaderLen:])
	for i := 0; i < n; i++ {
		_, p, err := wire.ParseUDP(dg, microSrc, microDst)
		if err != nil {
			panic(err)
		}
		sink += uint64(len(p))
	}
}

// allocFree allocates and frees one buffer on a warm heap, so superblock
// creation is not timed.
func allocFree(size int) func(n int) {
	var h *memory.Heap
	return func(n int) {
		if h == nil {
			h = memory.NewHeap(nil)
			h.Alloc(size).Free()
		}
		for i := 0; i < n; i++ {
			h.Alloc(size).Free()
		}
	}
}

func flowHash(n int) {
	for i := 0; i < n; i++ {
		sink += uint64(dpdkdev.FlowHash(microSrc, microDst, uint16(40000+i), 7300))
	}
}

// reqschedSubmit submits rack-shaped requests (one long in 16) to a
// two-worker DARC dispatcher eight at a time and runs them to completion.
func reqschedSubmit(n int) {
	eng := sim.NewEngine(1)
	d := reqsched.NewDispatcher(eng, 2, reqsched.DARC{Reserved: 1}, 0)
	for i := 0; i < n; {
		for k := 0; k < 8 && i < n; k, i = k+1, i+1 {
			c, svc := reqsched.Short, 800*time.Nanosecond
			if i%16 == 15 {
				c, svc = reqsched.Long, 20*time.Microsecond
			}
			d.Submit(c, svc, nil)
		}
		eng.Run()
	}
}

// catmemPushPop pushes a 64 B buffer on one catmem endpoint and pops it on
// its peer, both hosted by one node so no baton handoff is timed.
func catmemPushPop(n int) {
	eng := sim.NewEngine(1)
	node := eng.NewNode("pair")
	region := catmem.NewRegion(eng)
	a, b := region.New(node), region.New(node)
	eng.Spawn(node, func() {
		lqd := must(b.Socket(core.SockStream))
		check(b.Bind(lqd, core.Addr{Port: 1}))
		check(b.Listen(lqd, 1))
		aqt := must(b.Accept(lqd))
		qd := must(a.Socket(core.SockStream))
		cqt := must(a.Connect(qd, core.Addr{Port: 1}))
		must(a.Wait(cqt))
		peer := must(b.Wait(aqt)).NewQD
		for i := 0; i < n; i++ {
			buf := a.Heap().Alloc(64)
			must(a.Wait(must(a.Push(qd, core.SGA(buf)))))
			ev := must(b.Wait(must(b.Pop(peer))))
			ev.SGA.Free()
		}
		eng.Stop()
	})
	eng.Run()
}

// catnipPair is an established Catnip TCP connection between two stacks on
// the echo testbed.
type catnipPair struct {
	tb       *bench.Testbed
	tx, rx   *bench.Stack
	txq, rxq core.QDesc
}

// runCatnipPair connects two Catnip stacks, then runs send on the
// sender's node and recv on the receiver's.
func runCatnipPair(send, recv func(p *catnipPair)) {
	p := &catnipPair{tb: bench.NewTestbed(1, bench.SwitchEth())}
	p.rx = p.tb.NewStack(bench.SysCatnipTCP(), "rx", microDst)
	p.tx = p.tb.NewStack(bench.SysCatnipTCP(), "tx", microSrc)
	p.tb.SeedARP()
	addr := core.Addr{IP: microDst, Port: 7000}
	p.tb.Eng.Spawn(p.rx.Node, func() {
		l := p.rx.OS
		lqd := must(l.Socket(core.SockStream))
		check(l.Bind(lqd, addr))
		check(l.Listen(lqd, 1))
		p.rxq = must(l.Wait(must(l.Accept(lqd)))).NewQD
		recv(p)
	})
	p.tb.Eng.Spawn(p.tx.Node, func() {
		l := p.tx.OS
		p.txq = must(l.Socket(core.SockStream))
		must(l.Wait(must(l.Connect(p.txq, addr))))
		send(p)
		p.tb.Eng.Stop()
	})
	p.tb.Eng.Run()
}

// Catnip micro rounds: the sender pushes a burst of 64 B segments at the
// round's start; the receiver sleeps until the burst has landed in its rx
// ring, then pops it all without parking.
const (
	burst      = 8
	roundEvery = 100 * time.Microsecond
	drainAt    = 50 * time.Microsecond
)

// catnipEgress times the sender's Push calls: segmentation, headers,
// checksum and transmit on an established connection.
func catnipEgress(n int) (time.Duration, uint64) {
	d, a, _, _ := catnipRounds(n)
	return d, a
}

// catnipIngress times the receiver's Pop+Wait calls over a landed burst:
// device poll, parse, TCP receive, the ack it sends, and pop completion.
func catnipIngress(n int) (time.Duration, uint64) {
	_, _, d, a := catnipRounds(n)
	return d, a
}

func catnipRounds(n int) (txDur time.Duration, txAllocs uint64, rxDur time.Duration, rxAllocs uint64) {
	rounds := (n + burst - 1) / burst
	var m0, m1 runtime.MemStats
	runCatnipPair(func(p *catnipPair) {
		l, node := p.tx.OS, p.tx.Node
		qts := make([]core.QToken, burst)
		bufs := make([]*memory.Buf, burst)
		for r := 0; r < rounds; r++ {
			node.Park(sim.Time(0).Add(time.Duration(r+1) * roundEvery))
			for i := range bufs {
				bufs[i] = l.Heap().Alloc(64)
			}
			runtime.ReadMemStats(&m0)
			t := time.Now()
			for i, b := range bufs {
				qts[i] = must(l.Push(p.txq, core.SGA(b)))
			}
			txDur += time.Since(t)
			runtime.ReadMemStats(&m1)
			txAllocs += m1.Mallocs - m0.Mallocs
			for i, b := range bufs {
				b.Free()
				must(l.Wait(qts[i]))
			}
		}
	}, func(p *catnipPair) {
		l, node := p.rx.OS, p.rx.Node
		pop := must(l.Pop(p.rxq))
		for r := 0; r < rounds; r++ {
			at := sim.Time(0).Add(time.Duration(r+1)*roundEvery + drainAt)
			for node.Now() < at {
				if !node.Park(at) {
					return
				}
			}
			runtime.ReadMemStats(&m0)
			t := time.Now()
			for got := 0; got < burst*64; {
				ev := must(l.Wait(pop))
				got += ev.SGA.TotalLen()
				ev.SGA.Free()
				pop = must(l.Pop(p.rxq))
			}
			rxDur += time.Since(t)
			runtime.ReadMemStats(&m1)
			rxAllocs += m1.Mallocs - m0.Mallocs
			// Idle inside the libOS briefly so its acks go out, then
			// sleep outside it until the next burst has landed.
			_, _, err := l.WaitAny([]core.QToken{pop}, drainAt/5)
			if errors.Is(err, core.ErrStopped) {
				return
			}
			if !errors.Is(err, core.ErrTimeout) {
				panic(fmt.Sprintf("perfbench microbenchmark: idle wait: %v", err))
			}
		}
	})
	scale := func(d time.Duration) time.Duration { return d * time.Duration(n) / time.Duration(rounds*burst) }
	return scale(txDur), txAllocs * uint64(n) / uint64(rounds*burst),
		scale(rxDur), rxAllocs * uint64(n) / uint64(rounds*burst)
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(fmt.Sprintf("perfbench microbenchmark: %v", err))
	}
}
