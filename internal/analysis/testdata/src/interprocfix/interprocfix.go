// Package interprocfix seeds cross-function ownership and redemption
// leaks that only an interprocedural analysis catches: a checker that
// treats every helper call as consuming reports none of them.
package interprocfix

import (
	"errors"

	"demikernel/internal/core"
	"demikernel/internal/memory"
)

var errSkipped = errors.New("skipped")

// lib stands in for a PDPIX libOS.
type lib struct{}

func (lib) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) { return 1, nil }
func (lib) Wait(qt core.QToken) error                                 { return nil }

// audit only reads the buffer (ParamBorrows): passing a buffer through it
// discharges nothing.
func audit(b *memory.Buf) int {
	return b.Len()
}

// retire consumes the buffer on every path (ParamConsumes).
func retire(b *memory.Buf) {
	b.Free()
}

// wrapAlloc returns a freshly-owned buffer (OwnedResults): its call sites
// are producers just like direct h.Alloc calls.
func wrapAlloc(h *memory.Heap, n int) *memory.Buf {
	return h.Alloc(n)
}

// logToken only inspects the token (ParamBorrows): it redeems nothing.
func logToken(qt core.QToken) bool {
	return qt != core.InvalidQToken
}

func leakThroughBorrower(h *memory.Heap) int {
	b := h.Alloc(64) // want `buffer "b" allocated by h.Alloc is never freed, pushed, returned, or stored`
	return audit(b)
}

func handoffOK(h *memory.Heap) {
	b := h.Alloc(64)
	retire(b)
}

func leakFromHelperResult(h *memory.Heap) int {
	b := wrapAlloc(h, 64) // want `buffer "b" allocated by wrapAlloc is never freed, pushed, returned, or stored`
	return audit(b)
}

func helperResultFreedOK(h *memory.Heap) int {
	b := wrapAlloc(h, 64)
	n := audit(b)
	b.Free()
	return n
}

func leakOnEarlyReturn(h *memory.Heap, flush bool) error {
	b := wrapAlloc(h, 32)
	if !flush {
		return errSkipped // want `buffer "b" \(allocated at line \d+\) leaks on this return path`
	}
	b.Free()
	return nil
}

func strandThroughLogger(l lib, qd core.QDesc, sga core.SGArray) {
	qt, _ := l.Push(qd, sga) // want `qtoken "qt" returned by l.Push is never redeemed: passed to logToken, which only borrows it`
	logToken(qt)
}

func redeemOK(l lib, qd core.QDesc, sga core.SGArray) error {
	qt, err := l.Push(qd, sga)
	if err != nil {
		return err
	}
	logToken(qt)
	return l.Wait(qt)
}
