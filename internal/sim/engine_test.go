package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, nil, func() { got = append(got, 3) })
	e.At(10, nil, func() { got = append(got, 1) })
	e.At(20, nil, func() { got = append(got, 2) })
	e.At(10, nil, func() { got = append(got, 11) }) // same time: FIFO by seq
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("n")
	var end Time
	e.Spawn(n, func() {
		n.Charge(500 * time.Nanosecond)
		n.Charge(1500 * time.Nanosecond)
		end = n.Now()
	})
	e.Run()
	if end != 2000 {
		t.Errorf("node clock = %v, want 2000ns", end)
	}
	if n.Busy() != 2*time.Microsecond {
		t.Errorf("busy = %v, want 2µs", n.Busy())
	}
}

func TestParkDeadline(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("sleeper")
	var woke Time
	e.Spawn(n, func() {
		if !n.Park(n.Now().Add(5 * time.Microsecond)) {
			t.Error("park returned false before stop")
		}
		woke = n.Now()
	})
	e.Run()
	if woke != 5000 {
		t.Errorf("woke at %v, want 5µs", woke)
	}
}

func TestEventWakesParkedNode(t *testing.T) {
	e := NewEngine(1)
	n := e.NewNode("rx")
	delivered := false
	var woke Time
	e.Spawn(n, func() {
		for !delivered {
			if !n.Park(Infinity) {
				return
			}
		}
		woke = n.Now()
	})
	e.At(7_000, n, func() { delivered = true })
	e.Run()
	if !delivered {
		t.Fatal("event did not run")
	}
	if woke != 7_000 {
		t.Errorf("woke at %v, want 7µs", woke)
	}
}

// Two nodes exchanging messages through events must interleave in clock
// order: the receiver cannot observe a message before its send time plus
// latency.
func TestCausalPingPong(t *testing.T) {
	e := NewEngine(1)
	a, b := e.NewNode("a"), e.NewNode("b")
	const latency = 2 * time.Microsecond
	var (
		inboxA, inboxB []Time // message receive timestamps
		rounds         = 0
	)
	e.Spawn(a, func() {
		for rounds < 5 {
			a.Charge(100 * time.Nanosecond) // work before send
			e.At(a.Now().Add(latency), b, func() { inboxB = append(inboxB, e.Now()) })
			seen := len(inboxA)
			for len(inboxA) == seen {
				if !a.Park(Infinity) {
					return
				}
			}
			rounds++
		}
		e.Stop()
	})
	e.Spawn(b, func() {
		for {
			seen := len(inboxB)
			for len(inboxB) == seen {
				if !b.Park(Infinity) {
					return
				}
			}
			b.Charge(100 * time.Nanosecond)
			e.At(b.Now().Add(latency), a, func() { inboxA = append(inboxA, e.Now()) })
		}
	})
	e.Run()
	if rounds != 5 {
		t.Fatalf("completed %d rounds, want 5", rounds)
	}
	// Each round is >= 2*latency + 2*work.
	last := Time(0)
	for _, ts := range inboxA {
		if ts < last.Add(2*latency+200*time.Nanosecond) {
			t.Errorf("receive at %v violates round-trip lower bound (prev %v)", ts, last)
		}
		last = ts
	}
}

func TestStopUnblocksParkedNodes(t *testing.T) {
	e := NewEngine(1)
	server := e.NewNode("server")
	exited := false
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
		exited = true
	})
	e.At(1000, nil, func() { e.Stop() })
	e.Run()
	if !exited {
		t.Fatal("server goroutine did not unwind on Stop")
	}
}

func TestQuiescenceWithParkedServer(t *testing.T) {
	// A server parked forever must not prevent Run from returning once all
	// events are drained.
	e := NewEngine(1)
	server := e.NewNode("server")
	e.Spawn(server, func() {
		for server.Park(Infinity) {
		}
	})
	client := e.NewNode("client")
	e.Spawn(client, func() { client.Charge(time.Microsecond) })
	runWithin(t, e)
}

func TestYieldOrdersByClock(t *testing.T) {
	// A node that charged far ahead must let a lagging node catch up on
	// Yield.
	e := NewEngine(1)
	fast, slow := e.NewNode("fast"), e.NewNode("slow")
	var order []string
	e.Spawn(fast, func() {
		fast.Charge(10 * time.Microsecond)
		fast.Yield()
		order = append(order, "fast")
	})
	e.Spawn(slow, func() {
		slow.Charge(1 * time.Microsecond)
		order = append(order, "slow")
	})
	e.Run()
	if len(order) != 2 || order[0] != "slow" || order[1] != "fast" {
		t.Fatalf("order = %v, want [slow fast]", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var trace []Time
		rng := e.Rand()
		a, b := e.NewNode("a"), e.NewNode("b")
		e.Spawn(a, func() {
			for i := 0; i < 50; i++ {
				a.Charge(time.Duration(rng.Intn(1000)) * time.Nanosecond)
				e.At(a.Now().Add(time.Microsecond), b, nil)
				trace = append(trace, a.Now())
				if !a.Yield() {
					return
				}
			}
		})
		e.Spawn(b, func() {
			for i := 0; i < 50; i++ {
				if !b.Park(Infinity) {
					return
				}
				trace = append(trace, b.Now())
			}
		})
		e.Run()
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

// runWithin runs e and fails the test if Run does not return in time.
func runWithin(t *testing.T, e *Engine) {
	t.Helper()
	done := make(chan struct{})
	go func() { e.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}

// A node whose main exits through runtime.Goexit (as t.Fatal does) still
// passes the baton on: Run returns and the other node finishes.
func TestGoexitNodePassesBaton(t *testing.T) {
	e := NewEngine(1)
	quitter, worker := e.NewNode("quitter"), e.NewNode("worker")
	e.Spawn(quitter, func() {
		quitter.Park(quitter.Now().Add(time.Microsecond))
		runtime.Goexit()
	})
	var rounds int
	e.Spawn(worker, func() {
		for ; rounds < 3; rounds++ {
			if !worker.Park(worker.Now().Add(time.Microsecond)) {
				return
			}
		}
	})
	runWithin(t, e)
	if rounds != 3 {
		t.Errorf("worker completed %d rounds, want 3", rounds)
	}
	if quitter.state != stateFinished || worker.state != stateFinished {
		t.Errorf("states = %v, %v, want both finished", quitter.state, worker.state)
	}
}

// A wake event that calls Stop, processed inside a parking node's
// scheduling step, ends the run: every parked node's Park reports false.
func TestStopFromWakeEventWhileNodeHoldsBaton(t *testing.T) {
	e := NewEngine(1)
	waker, sleeper := e.NewNode("waker"), e.NewNode("sleeper")
	wakerOK, sleeperOK := true, true
	e.Spawn(sleeper, func() { sleeperOK = sleeper.Park(Infinity) })
	e.Spawn(waker, func() {
		waker.Charge(time.Microsecond)
		e.At(waker.Now().Add(time.Microsecond), sleeper, func() { e.Stop() })
		wakerOK = waker.Park(Infinity)
	})
	late := false
	e.At(Time(0).Add(time.Millisecond), nil, func() { late = true })
	runWithin(t, e)
	if wakerOK || sleeperOK {
		t.Errorf("Park results: waker %v, sleeper %v, want false", wakerOK, sleeperOK)
	}
	if late {
		t.Error("event after Stop was processed")
	}
}

// A running node that calls Stop and then parks gets false from that Park,
// as does every other parked node.
func TestStopThenParkFromRunningNode(t *testing.T) {
	e := NewEngine(1)
	stopper, idle := e.NewNode("stopper"), e.NewNode("idle")
	idleOK, stopperOK := true, true
	e.Spawn(idle, func() { idleOK = idle.Park(Infinity) })
	e.Spawn(stopper, func() {
		stopper.Charge(time.Microsecond)
		e.At(stopper.Now(), idle, nil)
		e.Stop()
		stopperOK = stopper.Park(Infinity)
		if stopper.Park(Infinity) {
			t.Error("second Park after Stop reported true")
		}
	})
	runWithin(t, e)
	if stopperOK || idleOK {
		t.Errorf("Park results: stopper %v, idle %v, want false", stopperOK, idleOK)
	}
}

// A warmed two-node cycle (wake the peer, park forever) and a Yield that is
// its own successor allocate nothing.
func TestHandoffAllocs(t *testing.T) {
	e := NewEngine(1)
	a, b := e.NewNode("a"), e.NewNode("b")
	var allocs float64
	e.Spawn(a, func() {
		allocs = testing.AllocsPerRun(1000, func() {
			e.At(a.Now(), b, nil)
			a.Park(Infinity)
			a.Charge(time.Nanosecond)
			a.Yield()
		})
		e.Stop()
	})
	e.Spawn(b, func() {
		for {
			e.At(b.Now(), a, nil)
			if !b.Park(Infinity) {
				return
			}
		}
	})
	runWithin(t, e)
	if allocs != 0 {
		t.Errorf("handoff cycle allocates %v per op, want 0", allocs)
	}
}

func TestRandDeterminismAndRange(t *testing.T) {
	r1, r2 := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	f := func(seed uint64, n uint16) bool {
		r := NewRand(seed)
		m := int(n%1000) + 1
		v := r.Intn(m)
		g := r.Float64()
		return v >= 0 && v < m && g >= 0 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventHeapProperty(t *testing.T) {
	// Pushing random events and popping them must yield nondecreasing
	// (time, seq) order.
	f := func(seed uint64, count uint8) bool {
		r := NewRand(seed)
		var h eventHeap
		n := int(count)%64 + 1
		for i := 0; i < n; i++ {
			h.push(event{at: Time(r.Intn(100)), seq: uint64(i)})
		}
		prevAt, prevSeq := Time(-1), uint64(0)
		for h.len() > 0 {
			ev := h.pop()
			if ev.at < prevAt || (ev.at == prevAt && ev.seq < prevSeq) {
				return false
			}
			prevAt, prevSeq = ev.at, ev.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Errorf("wall clock went backwards: %v then %v", a, b)
	}
}
