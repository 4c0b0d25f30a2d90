// Package catmem is Demikernel's shared-memory queue library OS (paper
// §4.1: "Demikernel libOSes implement ... shared-memory queues between
// processes on the same host"). Co-located application instances attach to
// one Region — a model of a shared-memory segment plus its heap — and
// connect to each other through named rendezvous ports. A connected queue
// is a duplex pair of fixed-capacity descriptor rings; push hands the
// scatter-gather array's buffers to the peer by reference through the
// shared heap, so an intra-host hop costs two ring operations and a
// cache-line handoff instead of a network stack traversal.
//
// Ownership follows the in-memory-queue contract (core.MemQueue), not the
// UAF-protected network contract: Push transfers ownership of the segments
// through the queue to the eventual popper, which frees them. A push the
// queue can never deliver (closed or dead peer) is freed by the libOS;
// producers never free after a successful Push call. This is what makes
// the datapath true zero-copy — no reference juggling, exactly one owner
// at every instant.
//
// Determinism: all completions happen on the owning node under the
// engine's baton discipline; cross-node notifications are pure wakeups
// scheduled through the event heap, so a seed replays byte-identically.
package catmem

import (
	"fmt"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dtrace"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// DefaultRingSlots is the per-direction ring capacity of a connected
// queue pair (also the high-water mark of Queue()-created memory queues).
const DefaultRingSlots = 64

// Region models one shared-memory segment: the heap buffers travel
// through, the rendezvous namespace, and the engine that sequences the
// attached instances. All libOS instances of one host share a Region.
type Region struct {
	eng       *sim.Engine
	heap      *memory.Heap
	slots     int
	handoff   time.Duration
	listeners map[uint16]*listener
}

// NewRegion returns an empty shared-memory region on eng.
func NewRegion(eng *sim.Engine) *Region {
	return &Region{
		eng:       eng,
		heap:      memory.NewHeap(nil),
		slots:     DefaultRingSlots,
		handoff:   costmodel.ShmHandoff,
		listeners: make(map[uint16]*listener),
	}
}

// Heap returns the region's shared heap. Every attached instance
// allocates from it, which is what lets buffers cross instances without a
// copy.
func (r *Region) Heap() *memory.Heap { return r.heap }

// SetRingSlots overrides the per-direction ring capacity for queues
// created after the call (tests shrink it to exercise backpressure).
func (r *Region) SetRingSlots(n int) {
	if n > 0 {
		r.slots = n
	}
}

// Faults are catmem's injection sites (all nil-safe).
type Faults struct {
	// RingFull, while active, models a stalled consumer: pushes park as
	// if the ring were at capacity even when slots are free.
	RingFull *faults.Site
	// PeerDeath abruptly kills the connection's peer on an eligible push:
	// both endpoints' parked operations fail and in-flight buffers are
	// reclaimed, as if the peer process had crashed.
	PeerDeath *faults.Site
}

// Stats counts libOS activity.
type Stats struct {
	Connects, Accepts uint64
	Pushes, Pops      uint64
	Stalls            uint64 // pushes parked on a full (or stalled) ring
	PeerDeaths        uint64 // connections torn down by the fault site
}

// LibOS is one application instance attached to a shared-memory region.
type LibOS struct {
	region *Region
	node   *sim.Node
	tokens *core.TokenTable
	qds    *core.QDescTable
	waiter core.Waiter
	flts   Faults
	stats  Stats

	conns     []*conn     // creation order: Step scans deterministically
	listens   []*listener // ditto
	curTenant uint32      // principal for the current EnterTenant bracket
	tstats    map[uint32]*tenantStats
	reg       *telemetry.Registry
	stallHist *telemetry.Histogram
	// stallWakeAt dedupes retry wakeups while a RingFull window holds
	// pushes parked.
	stallWakeAt sim.Time

	dt            *dtrace.Hop // distributed-trace hop; nil when untraced
	siteRingFull  uint8       // trace label for RingFull firings
	sitePeerDeath uint8       // trace label for PeerDeath firings
}

// New attaches a libOS instance for node to the region.
func (r *Region) New(node *sim.Node) *LibOS {
	l := &LibOS{
		region: r,
		node:   node,
		tokens: core.NewTokenTable(),
		qds:    core.NewQDescTable(),
		tstats: make(map[uint32]*tenantStats),
	}
	l.waiter = core.Waiter{Table: l.tokens, Runner: l}
	l.reg = telemetry.NewRegistry(node.Name() + "/catmem")
	l.stallHist = l.reg.Histogram("catmem.push_stall_ns")
	l.tokens.Instrument(node, 0)
	l.tokens.SetLatencyHist(l.reg.Histogram("core.qtoken_latency_ns"))
	s := &l.stats
	l.reg.Sample("catmem.connects", func() int64 { return int64(s.Connects) })
	l.reg.Sample("catmem.accepts", func() int64 { return int64(s.Accepts) })
	l.reg.Sample("catmem.pushes", func() int64 { return int64(s.Pushes) })
	l.reg.Sample("catmem.pops", func() int64 { return int64(s.Pops) })
	l.reg.Sample("catmem.stalls", func() int64 { return int64(s.Stalls) })
	l.reg.Sample("catmem.peer_deaths", func() int64 { return int64(s.PeerDeaths) })
	r.heap.PublishTelemetry(l.reg, node.Name()+".mem")
	return l
}

// SetFaults installs the injection sites (chaos harness hook).
func (l *LibOS) SetFaults(f Faults) { l.flts = f }

// AttachDTrace connects the instance to a distributed-trace hop: redeemed
// qtoken spans, ring push/pop instants (the zero-copy handoff, since the
// context rides the SGArray's buffer tags through the ring), and fault
// annotations inside affected traces. A nil hop keeps the instance untraced.
func (l *LibOS) AttachDTrace(h *dtrace.Hop) {
	l.dt = h
	l.tokens.SetDTrace(h)
	l.siteRingFull = h.Label("fault:catmem.ring_full")
	l.sitePeerDeath = h.Label("fault:catmem.peer_death")
}

// Tokens returns the qtoken table (flight-recorder attachment, leak
// checks).
func (l *LibOS) Tokens() *core.TokenTable { return l.tokens }

// Telemetry returns the instance's metric registry.
func (l *LibOS) Telemetry() *telemetry.Registry { return l.reg }

// Node returns the owning simulated host.
func (l *LibOS) Node() *sim.Node { return l.node }

// Heap returns the region's shared heap.
func (l *LibOS) Heap() *memory.Heap { return l.region.heap }

// Stats returns a snapshot of instance counters.
func (l *LibOS) Stats() Stats { return l.stats }

// --- Queue state ---

// sockQueue is an unconnected socket placeholder created by Socket.
type sockQueue struct {
	port   uint16
	bound  bool
	tenant uint32 // owning principal, captured at Socket
}

// listener accepts rendezvous connections on a region port.
type listener struct {
	lib     *LibOS
	qd      core.QDesc
	port    uint16
	tenant  uint32  // accepted endpoints inherit the listener's principal
	backlog []*conn // server-side endpoints awaiting accept
	accepts []*core.Op
	closed  bool
}

// pendingPush is one push parked on backpressure (ring full or a RingFull
// fault window).
type pendingPush struct {
	op       *core.Op
	sga      core.SGArray
	parkedAt sim.Time
}

// conn is one endpoint of a connected shared-memory queue pair.
type conn struct {
	lib    *LibOS
	qd     core.QDesc
	tenant uint32 // owning principal (0 = host)
	rx, tx *ring
	peer   *conn
	pops   []*core.Op
	pushes []pendingPush
	// closed: this side released the descriptor. peerClosed: the peer
	// did (remaining rx data stays poppable — half-close). dead: the
	// pair was killed by a peer-death fault.
	closed, peerClosed, dead bool
}

// wakePeer schedules a pure wakeup of the peer's node one cache-line
// handoff from now — the consumer-side latency of shared-memory
// notification.
func (c *conn) wakePeer() {
	p := c.peer
	if p == nil {
		return
	}
	l := c.lib
	l.region.eng.At(l.node.Now().Add(l.region.handoff), p.lib.node, nil)
}

// push hands sga to the peer. Ownership of the segments passes to the
// libOS here: delivered buffers are freed by the popper, undeliverable
// ones by the queue.
func (c *conn) push(op *core.Op, sga core.SGArray) {
	l := c.lib
	ctx := sga.TraceCtx()
	op.Trace(ctx)
	if c.dead || c.closed || c.peerClosed {
		sga.Free()
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return
	}
	if l.flts.PeerDeath.Fire(l.node.Now()) {
		l.dt.Fault(ctx, l.sitePeerDeath, int64(l.node.Now()))
		c.killPair()
		sga.Free()
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return
	}
	l.node.Charge(costmodel.ShmRingOp)
	if l.flts.RingFull.Active(l.node.Now()) || !c.tx.tryPush(sga) {
		if l.flts.RingFull.Active(l.node.Now()) {
			l.dt.Fault(ctx, l.siteRingFull, int64(l.node.Now()))
		}
		l.stats.Stalls++
		c.pushes = append(c.pushes, pendingPush{op: op, sga: sga, parkedAt: l.node.Now()})
		l.armStallRetry()
		return
	}
	l.stats.Pushes++
	l.bumpPush(c.tenant)
	l.dt.RingPush(ctx, int64(l.node.Now()))
	op.Complete(core.QEvent{QD: c.qd, Op: core.OpPush})
	c.wakePeer()
}

// pop completes op with the next ring entry, EOF after a peer close, or
// parks it.
func (c *conn) pop(op *core.Op) {
	l := c.lib
	l.node.Charge(costmodel.ShmRingOp)
	if sga, ok := c.rx.tryPop(); ok {
		l.stats.Pops++
		l.bumpPop(c.tenant)
		l.dt.RingPop(sga.TraceCtx(), int64(l.node.Now()))
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: sga})
		c.wakePeer() // freed a slot: peer may have parked pushes
		return
	}
	switch {
	case c.dead:
		op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	case c.peerClosed:
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
	case c.closed:
		op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	default:
		c.pops = append(c.pops, op)
	}
}

// step makes whatever progress the rings allow on this endpoint,
// reporting whether anything completed.
func (c *conn) step() bool {
	l := c.lib
	progress := false
	for len(c.pops) > 0 {
		sga, ok := c.rx.tryPop()
		if !ok {
			break
		}
		op := c.pops[0]
		c.pops = c.pops[1:]
		l.node.Charge(costmodel.ShmRingOp)
		l.stats.Pops++
		l.bumpPop(c.tenant)
		l.dt.RingPop(sga.TraceCtx(), int64(l.node.Now()))
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: sga})
		c.wakePeer()
		progress = true
	}
	if len(c.pops) > 0 && (c.dead || c.peerClosed) {
		for _, op := range c.pops {
			if c.dead {
				op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
			} else {
				op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
			}
		}
		c.pops = nil
		progress = true
	}
	if len(c.pushes) > 0 {
		switch {
		case c.dead || c.closed || c.peerClosed:
			c.failParkedPushes()
			progress = true
		case l.flts.RingFull.Active(l.node.Now()):
			l.armStallRetry() // still stalled: retry when the window ends
		default:
			for len(c.pushes) > 0 && c.tx.tryPush(c.pushes[0].sga) {
				p := c.pushes[0]
				c.pushes = c.pushes[1:]
				l.node.Charge(costmodel.ShmRingOp)
				l.stats.Pushes++
				l.bumpPush(c.tenant)
				l.dt.RingPush(p.sga.TraceCtx(), int64(l.node.Now()))
				l.stallHist.Observe(int64(l.node.Now().Sub(p.parkedAt)))
				p.op.Complete(core.QEvent{QD: c.qd, Op: core.OpPush})
				c.wakePeer()
				progress = true
			}
			if len(c.pushes) > 0 {
				l.armStallRetry()
			}
		}
	}
	return progress
}

// failParkedPushes frees and fails every parked push: the queue accepted
// the buffers and can no longer deliver them, so it frees them.
func (c *conn) failParkedPushes() {
	for _, p := range c.pushes {
		p.sga.Free()
		p.op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
	}
	c.pushes = nil
}

// drainFree reclaims every undelivered buffer still in the endpoint's
// receive ring — called when this side can never pop again.
func (c *conn) drainFree() {
	for {
		sga, ok := c.rx.tryPop()
		if !ok {
			return
		}
		sga.Free()
	}
}

// close releases this endpoint. The peer keeps draining what we already
// pushed (half-close); our own undrained rx data is freed here since the
// descriptor is gone.
func (c *conn) close() {
	if c.closed || c.dead {
		return
	}
	c.closed = true
	for _, op := range c.pops {
		op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	}
	c.pops = nil
	c.failParkedPushes()
	c.drainFree()
	if p := c.peer; p != nil {
		p.peerClosed = true
		c.wakePeer()
	}
}

// killPair is the peer-death fault: both endpoints die abruptly, every
// parked operation fails, and all in-flight buffers are reclaimed.
func (c *conn) killPair() {
	c.lib.stats.PeerDeaths++
	for _, e := range []*conn{c, c.peer} {
		if e == nil || e.dead {
			continue
		}
		e.dead = true
		for _, op := range e.pops {
			op.Fail(e.qd, core.OpPop, core.ErrQueueClosed)
		}
		e.pops = nil
		e.failParkedPushes()
		if !e.closed {
			e.drainFree()
		}
	}
	c.wakePeer()
}

// finished reports whether the endpoint can be dropped from the Step scan.
func (c *conn) finished() bool {
	return (c.closed || c.dead) && len(c.pops) == 0 && len(c.pushes) == 0
}

// armStallRetry schedules a self-wakeup so parked pushes are retried
// after a RingFull window even if no peer activity wakes the node. One
// wakeup is kept in flight at a time.
func (l *LibOS) armStallRetry() {
	now := l.node.Now()
	if l.stallWakeAt > now {
		return
	}
	d := l.flts.RingFull.Spec().Duration
	if d <= 0 {
		d = l.region.handoff
	}
	l.stallWakeAt = now.Add(d)
	l.region.eng.At(l.stallWakeAt, l.node, nil)
}

// --- Runner (drives the Waiter) ---

// Step delivers rendezvous completions and ring progress for one quantum.
func (l *LibOS) Step() bool {
	l.node.Charge(costmodel.SchedQuantum)
	for _, ln := range l.listens {
		if ln.closed {
			continue
		}
		if len(ln.backlog) > 0 && len(ln.accepts) > 0 {
			c := ln.backlog[0]
			ln.backlog = ln.backlog[1:]
			op := ln.accepts[0]
			ln.accepts = ln.accepts[1:]
			ln.complete(op, c)
			return true
		}
	}
	progress := false
	kept := l.conns[:0]
	for _, c := range l.conns {
		if c.step() {
			progress = true
		}
		if !c.finished() {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(l.conns); i++ {
		l.conns[i] = nil
	}
	l.conns = kept
	return progress
}

// Block parks the node until an event (peer push/pop, rendezvous, stall
// retry) or the deadline.
func (l *LibOS) Block(deadline sim.Time) bool { return l.node.Park(deadline) }

// Now returns the node's virtual clock.
func (l *LibOS) Now() sim.Time { return l.node.Now() }

// TryTake redeems a completed qtoken (demi.Drivable).
func (l *LibOS) TryTake(qt core.QToken) (core.QEvent, bool, error) {
	return l.tokens.TryTake(qt)
}

// --- PDPIX entry points ---

// Socket creates a stream socket (shared-memory queues are
// connection-oriented; there is no datagram flavor).
func (l *LibOS) Socket(t core.SockType) (core.QDesc, error) {
	l.node.Charge(costmodel.Libcall)
	if t != core.SockStream {
		return core.InvalidQD, core.ErrNotSupported
	}
	return l.qds.Insert(&sockQueue{tenant: l.curTenant}), nil
}

// Queue creates an in-memory queue bounded at the region's ring capacity.
func (l *LibOS) Queue() (core.QDesc, error) {
	l.node.Charge(costmodel.Libcall)
	qd := l.qds.Insert(nil)
	l.qds.Restore(qd, core.NewBoundedMemQueue(qd, l.region.slots))
	return qd, nil
}

// Open is not supported: catmem has no storage stack.
func (l *LibOS) Open(name string) (core.QDesc, error) {
	return core.InvalidQD, core.ErrNotSupported
}

// Bind claims a rendezvous port in the region's namespace. Only the IP's
// port matters — the region is one host.
func (l *LibOS) Bind(qd core.QDesc, addr core.Addr) error {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.ErrBadQDesc
	}
	s, ok := q.(*sockQueue)
	if !ok {
		return core.ErrNotSupported
	}
	if s.bound {
		return core.ErrInUse
	}
	if _, used := l.region.listeners[addr.Port]; used {
		return core.ErrInUse
	}
	s.port = addr.Port
	s.bound = true
	return nil
}

// Listen publishes the bound port for rendezvous.
func (l *LibOS) Listen(qd core.QDesc, backlog int) error {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.ErrBadQDesc
	}
	s, ok := q.(*sockQueue)
	if !ok {
		return core.ErrNotSupported
	}
	if !s.bound {
		return core.ErrNotBound
	}
	if _, used := l.region.listeners[s.port]; used {
		return core.ErrInUse
	}
	ln := &listener{lib: l, qd: qd, port: s.port, tenant: s.tenant}
	l.qds.Restore(qd, ln)
	l.region.listeners[s.port] = ln
	l.listens = append(l.listens, ln)
	return nil
}

// Accept asks for the next rendezvous on a listening queue.
func (l *LibOS) Accept(qd core.QDesc) (core.QToken, error) {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.InvalidQToken, core.ErrBadQDesc
	}
	ln, ok := q.(*listener)
	if !ok {
		return core.InvalidQToken, core.ErrNotSupported
	}
	op := l.tokens.New()
	if len(ln.backlog) > 0 {
		c := ln.backlog[0]
		ln.backlog = ln.backlog[1:]
		ln.complete(op, c)
	} else {
		ln.accepts = append(ln.accepts, op)
	}
	return op.Token(), nil
}

// complete finishes an accept: the server-side endpoint gets its
// descriptor and joins the instance's scan set.
func (ln *listener) complete(op *core.Op, c *conn) {
	l := ln.lib
	c.qd = l.qds.Insert(c)
	l.adopt(c)
	l.stats.Accepts++
	op.Complete(core.QEvent{QD: ln.qd, Op: core.OpAccept, NewQD: c.qd})
}

// adopt adds a connected endpoint to the Step scan and publishes its
// depth gauge (descriptor numbering is deterministic, so gauge names
// replay identically).
func (l *LibOS) adopt(c *conn) {
	l.conns = append(l.conns, c)
	r := c.rx
	l.reg.Sample(fmt.Sprintf("catmem.q%d.depth", c.qd), func() int64 { return int64(r.depth()) })
}

// Connect performs the rendezvous: a duplex ring pair is carved and the
// server-side endpoint is queued for accept. Shared-memory connect needs
// no handshake round trip, so the op completes immediately.
func (l *LibOS) Connect(qd core.QDesc, addr core.Addr) (core.QToken, error) {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.InvalidQToken, core.ErrBadQDesc
	}
	sq, ok := q.(*sockQueue)
	if !ok {
		return core.InvalidQToken, core.ErrNotSupported
	}
	op := l.tokens.New()
	ln := l.region.listeners[addr.Port]
	if ln == nil || ln.closed {
		op.Fail(qd, core.OpConnect, core.ErrConnRefused)
		return op.Token(), nil
	}
	c2s := newRing(l.region.slots)
	s2c := newRing(l.region.slots)
	cli := &conn{lib: l, qd: qd, tenant: sq.tenant, rx: s2c, tx: c2s}
	srv := &conn{lib: ln.lib, tenant: ln.tenant, rx: c2s, tx: s2c}
	cli.peer = srv
	srv.peer = cli
	l.qds.Restore(qd, cli)
	l.adopt(cli)
	ln.backlog = append(ln.backlog, srv)
	l.stats.Connects++
	op.Complete(core.QEvent{QD: qd, Op: core.OpConnect, NewQD: qd})
	cli.wakePeer() // let the listener's Step deliver the accept
	return op.Token(), nil
}

// Close releases a queue.
func (l *LibOS) Close(qd core.QDesc) error {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.ErrBadQDesc
	}
	switch s := q.(type) {
	case *conn:
		s.close()
	case *listener:
		s.closed = true
		delete(l.region.listeners, s.port)
		for _, op := range s.accepts {
			op.Fail(qd, core.OpAccept, core.ErrQueueClosed)
		}
		s.accepts = nil
		for _, c := range s.backlog {
			c.close() // never accepted: the client sees EOF
		}
		s.backlog = nil
	case *core.MemQueue:
		s.Destroy() // descriptor gone: free undrained data, never leak
	}
	l.qds.Remove(qd)
	return nil
}

// Push hands sga to the peer; see the package comment for the ownership
// contract (the producer never frees after a successful call).
func (l *LibOS) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	l.node.Charge(costmodel.Libcall)
	if len(sga.Segs) == 0 {
		return core.InvalidQToken, core.ErrEmptySGA
	}
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.InvalidQToken, core.ErrBadQDesc
	}
	switch s := q.(type) {
	case *conn:
		op := l.tokens.New()
		s.push(op, sga)
		return op.Token(), nil
	case *core.MemQueue:
		op := l.tokens.New()
		op.Trace(sga.TraceCtx())
		s.Push(op, sga)
		return op.Token(), nil
	default:
		return core.InvalidQToken, core.ErrNotSupported
	}
}

// PushTo is unsupported: shared-memory queues are connection-oriented.
func (l *LibOS) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	return core.InvalidQToken, core.ErrNotSupported
}

// Pop asks for the next scatter-gather array on the queue.
func (l *LibOS) Pop(qd core.QDesc) (core.QToken, error) {
	l.node.Charge(costmodel.Libcall)
	q, ok := l.qds.Lookup(qd)
	if !ok {
		return core.InvalidQToken, core.ErrBadQDesc
	}
	switch s := q.(type) {
	case *conn:
		op := l.tokens.New()
		s.pop(op)
		return op.Token(), nil
	case *core.MemQueue:
		op := l.tokens.New()
		s.Pop(op)
		return op.Token(), nil
	default:
		return core.InvalidQToken, core.ErrNotSupported
	}
}

// Wait blocks until qt completes.
func (l *LibOS) Wait(qt core.QToken) (core.QEvent, error) { return l.waiter.Wait(qt) }

// WaitAny blocks until one of qts completes.
func (l *LibOS) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	return l.waiter.WaitAny(qts, timeout)
}

// WaitAll blocks until all of qts complete.
func (l *LibOS) WaitAll(qts []core.QToken, timeout time.Duration) ([]core.QEvent, error) {
	return l.waiter.WaitAll(qts, timeout)
}

// Interface conformance: Catmem is a full PDPIX libOS and externally
// drivable (baseline wrappers, chaos harness).
var (
	_ demi.LibOS    = (*LibOS)(nil)
	_ demi.Drivable = (*LibOS)(nil)
)
