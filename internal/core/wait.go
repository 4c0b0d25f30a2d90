package core

import (
	"time"

	"demikernel/internal/sim"
)

// Waiter implements the PDPIX wait family over a token table and a Runner.
// This is the heart of Demikernel's cooperative execution: Wait does not
// sleep in a kernel — it *is* the scheduler loop, running application
// coroutines, background protocol work and the device fast path until the
// awaited token completes (paper §5.2's run-to-completion flow). Between
// quanta it rescans its wait set only after the table's generation moves,
// so a wait costs what completed, not what is pending.
type Waiter struct {
	Table  *TokenTable
	Runner Runner
	// Tenant is the principal redeeming through this waiter. Every
	// redemption goes through TryTakeAs, so a token minted for another
	// tenant fails with ErrBadQToken without consuming the victim's op.
	// The zero value is the host tenant, which redeems only host-minted
	// tokens — tenancy is strict equality, never a wildcard.
	Tenant uint32
	// rr rotates WaitAny's scan start across calls so a busy low-index
	// token cannot starve the rest. A server holding one pop per
	// connection in a single wait set would otherwise serve only the
	// first connection whenever its next request arrives before the
	// rescan — which is every time, for a closed-loop peer whose request
	// piggybacks the ack that completes the server's reply push.
	rr int
}

// Wait blocks until qt completes and returns its event.
func (w *Waiter) Wait(qt QToken) (QEvent, error) {
	_, ev, err := w.WaitAny([]QToken{qt}, -1)
	return ev, err
}

// WaitAny blocks until one of qts completes, returning its index and event.
// A negative timeout waits forever. Unlike epoll, exactly one completion is
// consumed per call, so each worker waiting on its own tokens wakes alone
// (no thundering herd; paper §3.3).
//
// The set is rescanned only when the table's generation has moved since
// the last empty scan: a runner quantum that completed nothing costs one
// compare, not a probe per token. Until the generation moves, a rescan
// would find what the last one did: nothing completed, and no error.
func (w *Waiter) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = w.Runner.Now().Add(timeout)
	}
	t := w.Table
	scanned, seen := false, uint64(0)
	for {
		if !scanned || t.gen != seen {
			i, ev, err := w.scan(qts)
			if err != nil || i >= 0 {
				return i, ev, err
			}
			scanned, seen = true, t.gen
		}
		if w.Runner.Step() {
			continue
		}
		if w.Runner.Now() >= deadline {
			return -1, QEvent{}, ErrTimeout
		}
		if !w.Runner.Block(deadline) {
			return -1, QEvent{}, ErrStopped
		}
	}
}

// scan probes qts once in rotation order, starting at rr, and redeems the
// first completed token. It returns index -1 when none has completed.
func (w *Waiter) scan(qts []QToken) (int, QEvent, error) {
	n := len(qts)
	if n == 0 {
		return -1, QEvent{}, nil
	}
	i := w.rr % n
	for k := 0; k < n; k++ {
		op, err := w.Table.probe(qts[i], w.Tenant)
		if err != nil {
			return -1, QEvent{}, err
		}
		if op.done {
			if n > 1 {
				// Single-token Waits (e.g. a nested wait on a
				// reply push) must not perturb the rotation.
				w.rr = i + 1 // next scan starts past this token
			}
			return i, w.Table.take(op), nil
		}
		if i++; i == n {
			i = 0
		}
	}
	return -1, QEvent{}, nil
}

// WaitAll blocks until every token completes, returning events in token
// order. On timeout, completed events consumed so far are returned with
// ErrTimeout. Like WaitAny, it rescans only after the generation moves.
func (w *Waiter) WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error) {
	deadline := sim.Infinity
	if timeout >= 0 {
		deadline = w.Runner.Now().Add(timeout)
	}
	events := make([]QEvent, len(qts))
	got := make([]bool, len(qts))
	remaining := len(qts)
	t := w.Table
	scanned, seen := false, uint64(0)
	for remaining > 0 {
		if !scanned || t.gen != seen {
			for i, qt := range qts {
				if got[i] {
					continue
				}
				op, err := t.probe(qt, w.Tenant)
				if err != nil {
					return events, err
				}
				if op.done {
					events[i] = t.take(op)
					got[i] = true
					remaining--
				}
			}
			if remaining == 0 {
				break
			}
			scanned, seen = true, t.gen
		}
		if w.Runner.Step() {
			continue
		}
		if w.Runner.Now() >= deadline {
			return events, ErrTimeout
		}
		if !w.Runner.Block(deadline) {
			return events, ErrStopped
		}
	}
	return events, nil
}
