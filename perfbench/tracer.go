package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/demi"
)

// Span kinds: one per PDPIX call, plus the request root that client calls
// hang under.
const (
	kSocket uint8 = iota
	kBind
	kListen
	kAccept
	kConnect
	kClose
	kQueue
	kOpen
	kPush
	kPushTo
	kPop
	kWait
	kWaitAny
	kWaitAll
	kRequest
	numKinds
)

var kindNames = [numKinds]string{"socket", "bind", "listen", "accept", "connect", "close",
	"queue", "open", "push", "push_to", "pop", "wait", "wait_any", "wait_all", "app.request"}

// span is one recorded call: host nanoseconds since the tracer started.
type span struct {
	start, end int64
	parent     int32 // index of the request span, -1 for none
	node       uint16
	kind       uint8
	tokens     uint16 // wait_any/wait_all set size
}

// tracer records a span around every PDPIX call the benchmark's wrapped
// libOSes make, in memory, and attributes host time as it goes.
//
// Only one simulated node runs at a time, so host time is one timeline of
// span boundaries. The stretch that ends at a span's end is that span's
// self time: the call was running just before it returned, and calls other
// nodes made while it waited are their own spans. A stretch that ends at a
// span's start is application time (app.host_self_ns): host time outside
// any PDPIX call. Self and application time therefore sum exactly to the
// traced wall time.
type tracer struct {
	base    time.Time
	spans   []span
	last    int64 // most recent span boundary, once started
	started bool

	self, calls, dur [numKinds]int64
	appSelf          int64
	waitAnyTokens    int64
	reqs             []int32 // per node: open request span, -1 for none
	lastEnd          []int64 // per node: end of its latest call
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// node registers a simulated node and returns its id.
func (t *tracer) node() uint16 {
	t.reqs = append(t.reqs, -1)
	t.lastEnd = append(t.lastEnd, 0)
	return uint16(len(t.reqs) - 1)
}

func (t *tracer) begin(node uint16, kind uint8, tokens int) int {
	now := t.now()
	if t.started {
		t.appSelf += now - t.last
	}
	t.started = true
	t.last = now
	t.spans = append(t.spans, span{start: now, end: -1, parent: t.reqs[node], node: node, kind: kind, tokens: uint16(tokens)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := t.now()
	s := &t.spans[i]
	s.end = now
	t.self[s.kind] += now - t.last
	t.calls[s.kind]++
	t.dur[s.kind] += now - s.start
	if s.kind == kWaitAny {
		t.waitAnyTokens += int64(s.tokens)
	}
	t.last = now
	t.lastEnd[s.node] = now
}

// request opens a new request span on node, closing the previous one at
// the end of the node's last call. Client wrappers call it on every push.
func (t *tracer) request(node uint16) {
	if r := t.reqs[node]; r >= 0 {
		t.spans[r].end = t.lastEnd[node]
	}
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: -1, node: node, kind: kRequest})
	t.reqs[node] = int32(len(t.spans) - 1)
}

// summarize returns the traced per-layer metrics: deterministic counts in
// counts, host times in times. reqs is the episode's request count.
func (t *tracer) summarize(reqs int) (counts, times values) {
	counts, times = values{}, values{}
	per := func(k uint8, sum int64) float64 {
		if t.calls[k] == 0 {
			return 0
		}
		return float64(sum) / float64(t.calls[k])
	}
	counts["pdpix.wait_any.tokens_per_call"] = per(kWaitAny, t.waitAnyTokens)
	counts["pdpix.calls_per_req"] = float64(sumOf(t.calls[:])) / float64(reqs)
	times["pdpix.wait_any.host_self_ns"] = per(kWaitAny, t.self[kWaitAny])
	times["pdpix.wait.host_self_ns"] = per(kWait, t.self[kWait])
	times["pdpix.push.host_ns"] = per(kPush, t.dur[kPush])
	times["pdpix.pop.host_ns"] = per(kPop, t.dur[kPop])
	times["app.host_self_ns"] = float64(t.appSelf) / float64(reqs)
	return counts, times
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// write saves the spans as tab-separated rows: id, node, kind, start_ns,
// end_ns, parent.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tnode\tkind\tstart_ns\tend_ns\tparent")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.node, kindNames[s.kind], s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOS wraps a libOS, recording a span around every PDPIX call. A
// client wrapper also opens a request span on each push.
type traceOS struct {
	demi.LibOS
	t      *tracer
	id     uint16
	client bool
}

// traced wraps l when tracing is on and returns l unchanged otherwise.
func traced(t *tracer, l demi.LibOS, client bool) demi.LibOS {
	if t == nil {
		return l
	}
	return &traceOS{LibOS: l, t: t, id: t.node(), client: client}
}

func (o *traceOS) Socket(st core.SockType) (core.QDesc, error) {
	i := o.t.begin(o.id, kSocket, 0)
	defer o.t.end(i)
	return o.LibOS.Socket(st)
}

func (o *traceOS) Bind(qd core.QDesc, a core.Addr) error {
	i := o.t.begin(o.id, kBind, 0)
	defer o.t.end(i)
	return o.LibOS.Bind(qd, a)
}

func (o *traceOS) Listen(qd core.QDesc, backlog int) error {
	i := o.t.begin(o.id, kListen, 0)
	defer o.t.end(i)
	return o.LibOS.Listen(qd, backlog)
}

func (o *traceOS) Accept(qd core.QDesc) (core.QToken, error) {
	i := o.t.begin(o.id, kAccept, 0)
	defer o.t.end(i)
	return o.LibOS.Accept(qd)
}

func (o *traceOS) Connect(qd core.QDesc, a core.Addr) (core.QToken, error) {
	i := o.t.begin(o.id, kConnect, 0)
	defer o.t.end(i)
	return o.LibOS.Connect(qd, a)
}

func (o *traceOS) Close(qd core.QDesc) error {
	i := o.t.begin(o.id, kClose, 0)
	defer o.t.end(i)
	return o.LibOS.Close(qd)
}

func (o *traceOS) Queue() (core.QDesc, error) {
	i := o.t.begin(o.id, kQueue, 0)
	defer o.t.end(i)
	return o.LibOS.Queue()
}

func (o *traceOS) Open(name string) (core.QDesc, error) {
	i := o.t.begin(o.id, kOpen, 0)
	defer o.t.end(i)
	return o.LibOS.Open(name)
}

func (o *traceOS) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	if o.client {
		o.t.request(o.id)
	}
	i := o.t.begin(o.id, kPush, 0)
	defer o.t.end(i)
	return o.LibOS.Push(qd, sga)
}

func (o *traceOS) PushTo(qd core.QDesc, sga core.SGArray, to core.Addr) (core.QToken, error) {
	if o.client {
		o.t.request(o.id)
	}
	i := o.t.begin(o.id, kPushTo, 0)
	defer o.t.end(i)
	return o.LibOS.PushTo(qd, sga, to)
}

func (o *traceOS) Pop(qd core.QDesc) (core.QToken, error) {
	i := o.t.begin(o.id, kPop, 0)
	defer o.t.end(i)
	return o.LibOS.Pop(qd)
}

func (o *traceOS) Wait(qt core.QToken) (core.QEvent, error) {
	i := o.t.begin(o.id, kWait, 1)
	defer o.t.end(i)
	return o.LibOS.Wait(qt)
}

func (o *traceOS) WaitAny(qts []core.QToken, timeout time.Duration) (int, core.QEvent, error) {
	i := o.t.begin(o.id, kWaitAny, len(qts))
	defer o.t.end(i)
	return o.LibOS.WaitAny(qts, timeout)
}

func (o *traceOS) WaitAll(qts []core.QToken, timeout time.Duration) ([]core.QEvent, error) {
	i := o.t.begin(o.id, kWaitAll, len(qts))
	defer o.t.end(i)
	return o.LibOS.WaitAll(qts, timeout)
}
