package sim

import "fmt"

// Engine is the discrete-event simulator. It owns the global event heap and
// coordinates node execution with a baton: whoever holds the baton processes
// the earliest pending events and then passes it directly to the runnable
// node with the smallest local clock. A parking node runs that scheduling
// step on its own goroutine and switches straight to its successor, or keeps
// running when it is its own successor; Run holds the baton only to make the
// first grant and to shut down once the simulation quiesces or stops.
// Because exactly one goroutine (Run or a single node) executes at any time,
// the engine state needs no locks; the channels provide the happens-before
// edges. Event closures run on whichever goroutine holds the baton, so they
// must not call Park or runtime.Goexit (t.Fatal belongs in node mains and
// test bodies, never in At closures).
//
// Causality invariant: every runnable node's clock is >= the engine's
// current time, and events are executed in nondecreasing (time, seq) order,
// so a node can never observe an effect from its future.
type Engine struct {
	now   Time
	heap  eventHeap
	seq   uint64
	nodes []*Node
	rng   *Rand

	back          chan struct{} // baton: node -> Run, on quiescence, stop or shutdown
	stopRequested bool
	stopped       bool
	runSeq        uint64 // ticks once per baton grant (round-robin ties)

	eventsRun uint64
	mains     map[*Node]func() // app entry points not yet started
}

// NewEngine returns an engine with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		back:  make(chan struct{}),
		mains: make(map[*Node]func()),
	}
}

// Now returns the engine's global virtual time: the timestamp of the last
// processed event. Running nodes may be ahead of it.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root random stream. Subsystems should Fork it.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsRun returns the number of events processed so far.
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// NewNode creates a simulated host with the given diagnostic name. Nodes
// with no Spawned main still work as passive event targets (their devices
// can be driven by events), but most nodes get a main via Spawn.
func (e *Engine) NewNode(name string) *Node {
	n := &Node{
		eng:    e,
		id:     len(e.nodes),
		name:   name,
		resume: make(chan struct{}),
	}
	e.nodes = append(e.nodes, n)
	return n
}

// Spawn registers fn as the node's application main. The node becomes
// runnable at the engine's current time. Spawn must be called before Run or
// from inside the simulation (an event or another node).
func (e *Engine) Spawn(n *Node, fn func()) {
	if n.state != stateNew {
		panic(fmt.Sprintf("sim: node %q spawned twice", n.name))
	}
	n.state = stateRunnable
	n.clock = e.now
	e.mains[n] = fn
	go func() {
		<-n.resume
		// The finishing node passes the baton on itself, like a parking
		// one. Deferring the handoff also covers runtime.Goexit (e.g.
		// t.Fatal inside a node's main), which would otherwise leave no
		// goroutine holding the baton. Once the engine is stopped, no
		// events run: the baton goes straight back to Run's goroutine.
		defer func() {
			n.state = stateFinished
			if e.stopped {
				e.back <- struct{}{}
				return
			}
			e.pass(e.advance())
		}()
		fn()
	}()
}

// At schedules fn to run at virtual time t. After fn runs, target (if
// non-nil and parked) is woken with its clock advanced to at least t.
// fn may be nil (pure wakeup). At may be called before Run, from an event,
// or from the currently running node; t is clamped to the caller's present
// to preserve causality.
func (e *Engine) At(t Time, target *Node, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, target: target, fn: fn})
}

// Stop requests a graceful shutdown: once the current node parks, the
// engine stops processing events and unparks every node with a false Park
// result so application code can unwind.
func (e *Engine) Stop() { e.stopRequested = true }

// minRunnable returns the runnable node with the smallest clock, breaking
// clock ties by least-recently-run (then id). The tie-break makes
// equal-clock nodes — the virtual CPUs of one multi-core host — take the
// baton round-robin instead of lowest-id-first, while staying fully
// deterministic.
func (e *Engine) minRunnable() *Node {
	var best *Node
	for _, n := range e.nodes {
		if n.state != stateRunnable {
			continue
		}
		if best == nil || n.clock < best.clock ||
			(n.clock == best.clock && n.ranSeq < best.ranSeq) {
			best = n
		}
	}
	return best
}

// Run executes the simulation until it quiesces (no pending events and no
// runnable node) or Stop is requested. It then releases every parked node.
// Run makes the first grant; nodes then pass the baton among themselves and
// hand it back only when the holder finds nothing left to run.
func (e *Engine) Run() {
	// Looking again after the baton returns matters only when Run is called
	// on a stopped engine: a finishing node then hands back unconditionally.
	for next := e.advance(); next != nil; next = e.advance() {
		e.pass(next)
		<-e.back
	}
	e.shutdown()
}

// advance processes every event at or before the next runnable node's clock
// and returns that node, or nil when the simulation is quiescent or stopping.
// It runs on whichever goroutine holds the baton.
func (e *Engine) advance() *Node {
	if e.stopRequested {
		return nil
	}
	next := e.minRunnable()
	// With no runnable node, drain events until one wakes somebody.
	for e.heap.len() > 0 && (next == nil || e.heap.peek().at <= next.clock) {
		ev := e.heap.pop()
		e.now = ev.at
		e.eventsRun++
		if ev.fn != nil {
			ev.fn()
		}
		if t := ev.target; t != nil && t.state == stateParked {
			t.state = stateRunnable
			if ev.at > t.clock {
				t.clock = ev.at
			}
		}
		if e.stopRequested {
			return nil
		}
		next = e.minRunnable()
	}
	return next
}

// grant gives n the baton's bookkeeping: it becomes the running node.
func (e *Engine) grant(n *Node) {
	e.runSeq++
	n.ranSeq = e.runSeq
	n.state = stateRunning
}

// pass hands the baton from the calling goroutine to next, or back to Run
// when next is nil. The caller must not touch simulation state afterwards.
func (e *Engine) pass(next *Node) {
	if next == nil {
		e.back <- struct{}{}
		return
	}
	e.grant(next)
	next.resume <- struct{}{}
}

// shutdown marks the engine stopped and unblocks every parked node so its
// goroutine can observe the stop and return.
func (e *Engine) shutdown() {
	e.stopped = true
	for {
		var parked *Node
		for _, n := range e.nodes {
			if n.state == stateParked || n.state == stateRunnable {
				parked = n
				break
			}
		}
		if parked == nil {
			return
		}
		e.pass(parked)
		<-e.back
	}
}
