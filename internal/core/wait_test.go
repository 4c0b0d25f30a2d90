package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"demikernel/internal/sim"
)

// doneOp mints an operation and completes it at once.
func doneOp(tb *TokenTable, qd QDesc) *Op {
	op := tb.New()
	op.Complete(QEvent{QD: qd, Op: OpPop})
	return op
}

func TestWaitAnyRotatesAcrossCalls(t *testing.T) {
	tb := NewTokenTable()
	w := &Waiter{Table: tb, Runner: &stubRunner{}}
	qts := make([]QToken, 3)
	for i := range qts {
		qts[i] = doneOp(tb, QDesc(i)).Token()
	}
	// Every token is always complete, so each call returns the one the
	// rotation reaches first: the token past the previous winner.
	for call, want := range []int{0, 1, 2, 0, 1} {
		if call == 2 {
			// A single-token Wait in between leaves the rotation alone.
			if _, err := w.Wait(doneOp(tb, 9).Token()); err != nil {
				t.Fatal(err)
			}
		}
		i, ev, err := w.WaitAny(qts, -1)
		if err != nil {
			t.Fatal(err)
		}
		if i != want || ev.QD != QDesc(want) {
			t.Fatalf("call %d: index %d (QD %d), want %d", call, i, ev.QD, want)
		}
		qts[i] = doneOp(tb, QDesc(i)).Token()
	}
}

func TestWaitAnyStepRedeemingOuterTokenFails(t *testing.T) {
	tb := NewTokenTable()
	a, b := tb.New(), tb.New()
	// The quantum completes and redeems a token of the outer set, as a
	// nested coroutine's own Wait would.
	r := &stubRunner{work: []func(){
		func() {},
		func() {
			a.Complete(QEvent{})
			if _, done, err := tb.TryTake(a.Token()); !done || err != nil {
				t.Fatalf("nested take: done=%v err=%v", done, err)
			}
		},
		func() {},
	}}
	w := &Waiter{Table: tb, Runner: r}
	if _, _, err := w.WaitAny([]QToken{a.Token(), b.Token()}, -1); !errors.Is(err, ErrBadQToken) {
		t.Fatalf("err = %v, want ErrBadQToken", err)
	}
	if len(r.work) != 1 {
		t.Errorf("%d quanta left, want 1: the rescan must follow the redeeming quantum", len(r.work))
	}
}

func TestGenerationMovesOnCompleteAndRedeem(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	g0 := tb.Generation()
	if _, done, _ := tb.TryTake(op.Token()); done || tb.Generation() != g0 {
		t.Fatalf("probing a pending op moved the generation (done=%v)", done)
	}
	op.Complete(QEvent{})
	g1 := tb.Generation()
	if g1 == g0 {
		t.Fatal("Complete did not move the generation")
	}
	if _, done, _ := tb.TryTake(op.Token()); !done || tb.Generation() == g1 {
		t.Fatalf("redemption did not move the generation (done=%v)", done)
	}
	g2 := tb.Generation()
	tb.Cancel(tb.New().Token(), 1, OpPop)
	if tb.Generation() == g2 {
		t.Fatal("Cancel did not move the generation")
	}
}

func TestWaitAnyEmptySetSleepsUntilDeadline(t *testing.T) {
	r := &stubRunner{now: 100}
	w := &Waiter{Table: NewTokenTable(), Runner: r}
	i, _, err := w.WaitAny(nil, 5*time.Microsecond)
	if !errors.Is(err, ErrTimeout) || i != -1 {
		t.Fatalf("i=%d err=%v, want -1 and ErrTimeout", i, err)
	}
	if r.now != 100+5000 {
		t.Errorf("woke at %d, want the deadline 5100", r.now)
	}
}

func TestWaitAnyForgeryCountedOncePerCall(t *testing.T) {
	tb := NewTokenTable()
	own := tb.New()
	tb.SetIssuer(2)
	foreign := tb.New()
	tb.SetIssuer(0)
	idle := make([]func(), 100)
	for i := range idle {
		idle[i] = func() {}
	}
	r := &stubRunner{work: idle}
	w := &Waiter{Table: tb, Runner: r}
	qts := []QToken{own.Token(), foreign.Token()}
	for call := 1; call <= 2; call++ {
		if _, _, err := w.WaitAny(qts, -1); !errors.Is(err, ErrBadQToken) {
			t.Fatalf("call %d: err = %v, want ErrBadQToken", call, err)
		}
		if got := tb.Forgeries(); got != uint64(call) {
			t.Fatalf("after call %d: %d forgeries", call, got)
		}
	}
	if tb.OutstandingFor(2) != 1 {
		t.Error("the rejected redemption consumed the victim's op")
	}
}

func TestTokenOutstandingAcrossRingLaps(t *testing.T) {
	tb := NewTokenTable()
	tb.SetIssuer(7)
	long := []*Op{tb.New(), tb.New(), tb.New()}
	tb.SetIssuer(0)
	// Three laps of short-lived tokens, each redeemed at once, with one
	// more left outstanding per lap.
	var kept []*Op
	for i := 0; i < 3*ringSize; i++ {
		op := doneOp(tb, 1)
		if i%ringSize == 0 {
			kept = append(kept, tb.New())
		}
		if _, done, err := tb.TryTake(op.Token()); !done || err != nil {
			t.Fatalf("mint %d: done=%v err=%v", i, done, err)
		}
	}
	all := append(append([]*Op{}, long...), kept...)
	if got, want := tb.Outstanding(), len(all); got != want {
		t.Fatalf("Outstanding = %d, want %d", got, want)
	}
	if got := tb.OutstandingFor(7); got != len(long) {
		t.Fatalf("OutstandingFor(7) = %d, want %d", got, len(long))
	}
	for _, op := range all {
		if got, ok := tb.Lookup(op.Token()); !ok || got != op {
			t.Fatalf("token %d lost after the ring lapped it", op.Token())
		}
	}
	// A slot's occupant answers only for its own token: not for the
	// redeemed one a lap before it, nor for one a lap ahead.
	last := kept[len(kept)-1].Token()
	for _, qt := range []QToken{last - ringSize, last + ringSize} {
		if _, _, err := tb.TryTake(qt); !errors.Is(err, ErrBadQToken) {
			t.Errorf("token %d sharing a slot with %d: err = %v", qt, last, err)
		}
	}

	// Found and redeemed by a wait, under its tenant.
	w := &Waiter{Table: tb, Runner: &stubRunner{work: []func(){
		func() { long[1].Complete(QEvent{QD: 4}) },
	}}, Tenant: 7}
	i, ev, err := w.WaitAny([]QToken{long[0].Token(), long[1].Token()}, -1)
	if err != nil || i != 1 || ev.QD != 4 {
		t.Fatalf("WaitAny: i=%d ev=%+v err=%v", i, ev, err)
	}
	// Cancelled.
	tb.Cancel(long[2].Token(), 5, OpPop)
	if ev, done, err := tb.TryTakeAs(long[2].Token(), 7); !done || err != nil || !errors.Is(ev.Err, ErrQueueClosed) {
		t.Fatalf("cancelled: ev=%+v done=%v err=%v", ev, done, err)
	}
	if got := tb.OutstandingFor(7); got != 1 {
		t.Errorf("OutstandingFor(7) = %d after two redemptions, want 1", got)
	}
	if _, _, err := tb.TryTakeAs(long[1].Token(), 7); !errors.Is(err, ErrBadQToken) {
		t.Errorf("second redemption: err = %v", err)
	}
	tb.Cancel(long[0].Token(), 5, OpPop)
	for _, op := range append([]*Op{long[0]}, kept...) {
		if !op.Done() {
			op.Complete(QEvent{})
		}
		if _, done, err := tb.TryTakeAs(op.Token(), op.Tenant()); !done || err != nil {
			t.Fatalf("drain %d: done=%v err=%v", op.Token(), done, err)
		}
	}
	if tb.Outstanding() != 0 || len(tb.over) != 0 {
		t.Errorf("Outstanding = %d, overflow holds %d after the drain", tb.Outstanding(), len(tb.over))
	}
}

// idleRunner runs idle empty quanta (work that completes nothing), then
// completes fire.
type idleRunner struct {
	idle, left int
	fire       *Op
}

func (r *idleRunner) Step() bool {
	if r.left > 0 {
		r.left--
		return true
	}
	if r.fire != nil {
		r.fire.Complete(QEvent{Op: OpPop})
		r.fire = nil
		return true
	}
	return false
}

func (r *idleRunner) Block(deadline sim.Time) bool { return false }
func (r *idleRunner) Now() sim.Time                { return 0 }

// arm queues r's idle quanta before completing op.
func (r *idleRunner) arm(op *Op) { r.left, r.fire = r.idle, op }

// waitSet mints n outstanding tokens.
func waitSet(tb *TokenTable, n int) ([]*Op, []QToken) {
	ops := make([]*Op, n)
	qts := make([]QToken, n)
	for i := range ops {
		ops[i] = tb.New()
		qts[i] = ops[i].Token()
	}
	return ops, qts
}

func TestWaitAnyAllocs(t *testing.T) {
	const runs = 50
	tb := NewTokenTable()
	ops, qts := waitSet(tb, 65)
	spare := make([]*Op, 0, runs+1)
	for len(spare) < cap(spare) {
		spare = append(spare, tb.New())
	}
	r := &idleRunner{idle: 100}
	w := &Waiter{Table: tb, Runner: r}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		k = (k + 7) % len(qts)
		r.arm(ops[k])
		if i, _, err := w.WaitAny(qts, -1); err != nil || i != k {
			t.Fatalf("WaitAny = %d, %v; want %d", i, err, k)
		}
		ops[k], spare = spare[0], spare[1:]
		qts[k] = ops[k].Token()
	})
	if allocs != 0 {
		t.Errorf("WaitAny over 65 tokens and 100 empty quanta: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkWaitAnyIdleSteps redeems one token of a 65-token set after k
// quanta that complete nothing. With the generation gate its cost grows
// with k by a compare per quantum, not by 65 probes.
func BenchmarkWaitAnyIdleSteps(b *testing.B) {
	for _, k := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("idle=%d", k), func(b *testing.B) {
			tb := NewTokenTable()
			ops, qts := waitSet(tb, 65)
			r := &idleRunner{idle: k}
			w := &Waiter{Table: tb, Runner: r}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				j := n * 7 % len(qts)
				r.arm(ops[j])
				w.WaitAny(qts, -1)
				ops[j] = tb.New()
				qts[j] = ops[j].Token()
			}
		})
	}
}
