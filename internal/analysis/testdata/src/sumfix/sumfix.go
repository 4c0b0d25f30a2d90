// Package sumfix exercises the summary engine's fixpoint directly (no
// want comments — summary_test.go asserts on the computed summaries):
// parameter-mode classification and owned-result provenance, including
// under mutual recursion.
package sumfix

import "demikernel/internal/memory"

func blen(b *memory.Buf) int { return b.Len() }

func bfree(b *memory.Buf) { b.Free() }

func deferFree(b *memory.Buf) int {
	defer b.Free()
	return b.Len()
}

// maybeFree consumes on one unknown-class exit and leaks on the other:
// the Mixed contract.
func maybeFree(b *memory.Buf, n int) int {
	if n > 0 {
		b.Free()
		return n
	}
	return 0
}

func wrapAlloc(h *memory.Heap, n int) *memory.Buf { return h.Alloc(n) }

// rewrap launders the allocation through a local and a second return —
// owned-result provenance must follow both.
func rewrap(h *memory.Heap, n int) *memory.Buf {
	b := wrapAlloc(h, n)
	return b
}

// passthrough returns its argument: no fresh ownership in the result.
func passthrough(b *memory.Buf) *memory.Buf { return b }

// pingFree/pongFree consume the buffer through mutual recursion: the
// fixpoint must converge with both summarized as consuming.
func pingFree(b *memory.Buf, n int) {
	if n <= 0 {
		b.Free()
		return
	}
	pongFree(b, n-1)
}

func pongFree(b *memory.Buf, n int) {
	pingFree(b, n-1)
}
