package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/transport"
	"repro/internal/workload"
)

// maxSpans caps the spans one traced run keeps in memory; later spans
// are counted as dropped while the per-kind timings keep recording.
const maxSpans = 1 << 18

// span is one timed call across a layer boundary. Spans of one client
// operation share the op span's id as parent; node-side spans have no
// parent, because the wire protocol carries no trace context and the
// program is measured from outside.
type span struct {
	id, parent uint64
	name       string
	start, dur time.Duration // start is relative to the tracer's origin
}

// tracer collects per-layer timings in a traced run. A nil *tracer is
// valid everywhere and records nothing, so untraced runs pay only the
// nil checks at the benchmark's own call sites; node endpoints are not
// decorated at all when tracing is off.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	send    map[uint8]*samples // transport Send latency per message kind
	handle  map[uint8]*samples // installed Handler latency per kind
	timers  map[string]*samples
	spans   []span
	dropped int64

	sendErrs  atomic.Int64
	sendBytes atomic.Int64 // encoded request + reply bytes of node sends
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		send:   make(map[uint8]*samples),
		handle: make(map[uint8]*samples),
		timers: make(map[string]*samples),
	}
}

// reset drops everything recorded so far, so that a traced run's
// figures cover only its measured window, not set-up or warm-up.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.send)
	clear(t.handle)
	clear(t.timers)
	t.spans, t.dropped = t.spans[:0], 0
	t.sendErrs.Store(0)
	t.sendBytes.Store(0)
}

// newSpan allocates a span id; 0 when untraced.
func (t *tracer) newSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// end closes span id, a child of parent opened at start, and returns
// its duration; untraced, it only measures.
func (t *tracer) end(id, parent uint64, name string, start time.Time) time.Duration {
	d := time.Since(start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start.Sub(t.origin), dur: d})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return d
}

// phase closes a parentless span for one timed call into a layer
// (an epoch phase, a simulator phase) and records it under name.
func (t *tracer) phase(name string, start time.Time) time.Duration {
	d := t.end(t.newSpan(), 0, name, start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	s := t.timers[name]
	if s == nil {
		s = &samples{}
		t.timers[name] = s
	}
	s.add(d)
	t.mu.Unlock()
	return d
}

func (t *tracer) record(m map[uint8]*samples, kind uint8, d time.Duration) {
	t.mu.Lock()
	s := m[kind]
	if s == nil {
		s = &samples{}
		m[kind] = s
	}
	s.add(d)
	t.mu.Unlock()
}

// kindSamples merges the samples of every kind whose wire name is in
// group (see kindGroup) into one slice.
func (t *tracer) kindSamples(m map[uint8]*samples, group string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for k, s := range m {
		if kindGroup(k) == group {
			out = append(out, *s...)
		}
	}
	return out
}

func (t *tracer) timer(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.timers[name]; s != nil {
		return append([]float64(nil), *s...)
	}
	return nil
}

// last returns the latest sample of a named timer (0 if none).
func (t *tracer) last(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.timers[name]; s != nil && len(*s) > 0 {
		return (*s)[len(*s)-1]
	}
	return 0
}

// writeSpans writes the held spans as tab-separated lines
// (id, parent, name, start_us, dur_us) to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# id\tparent\tname\tstart_us\tdur_us\t(dropped %d)\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%.3f\t%.3f\n", s.id, s.parent, s.name,
			float64(s.start.Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kindGroups are the message-kind groups the per-layer transport and
// handler metrics report, in output order.
var kindGroups = []string{"put", "get", "sync", "ver", "stats", "store", "xfer", "ae"}

// kindGroup folds the transfer-session and anti-entropy kinds into one
// group each; other kinds keep their wire name.
func kindGroup(kind uint8) string {
	name := node.KindNames[kind]
	switch {
	case len(name) > 5 && name[:5] == "xfer-":
		return "xfer"
	case len(name) > 3 && name[:3] == "ae-":
		return "ae"
	}
	return name
}

// timedTransport decorates one node endpoint: it times every Send by
// message kind and wraps the Handler the node installs so that inbound
// requests are timed too. Messages, replies and errors pass through
// unchanged.
type timedTransport struct {
	inner transport.Transport
	tr    *tracer
}

var _ transport.Transport = (*timedTransport)(nil)

func (tt *timedTransport) Addr() string { return tt.inner.Addr() }

func (tt *timedTransport) Close() error { return tt.inner.Close() }

func (tt *timedTransport) Send(peer string, req *transport.Message) (*transport.Message, error) {
	kind := req.Kind
	reqBytes := encodedLen(req) // before Send: TCP recycles pooled requests
	start := time.Now()
	resp, err := tt.inner.Send(peer, req)
	tt.tr.record(tt.tr.send, kind, tt.tr.end(tt.tr.newSpan(), 0, "send."+node.KindNames[kind], start))
	if err != nil {
		tt.tr.sendErrs.Add(1)
	} else {
		tt.tr.sendBytes.Add(int64(reqBytes + encodedLen(resp)))
	}
	return resp, err
}

func (tt *timedTransport) SetHandler(h transport.Handler) {
	tt.inner.SetHandler(timedHandler(h, tt.tr))
}

// timedHandler wraps a Handler with per-kind timing.
func timedHandler(h transport.Handler, tr *tracer) transport.Handler {
	return func(from string, req *transport.Message) (*transport.Message, error) {
		kind := req.Kind
		start := time.Now()
		resp, err := h(from, req)
		tr.record(tr.handle, kind, tr.end(tr.newSpan(), 0, "handle."+node.KindNames[kind], start))
		return resp, err
	}
}

// frameHeaderLen is the size of the transport's frame header, which
// AppendMessage does not write.
const frameHeaderLen = 14

// encodedLen is a message's body size on the wire plus the frame header.
func encodedLen(m *transport.Message) int {
	if m == nil {
		return 0
	}
	var buf [64]byte
	return len(transport.AppendMessage(buf[:0], m)) + frameHeaderLen
}

// timedGenerator times the simulator's demand phase.
type timedGenerator struct {
	inner workload.Generator
	tr    *tracer
}

func (g timedGenerator) Name() string { return g.inner.Name() }

func (g timedGenerator) Epoch(t int) *workload.Matrix {
	start := time.Now()
	m := g.inner.Epoch(t)
	g.tr.phase("sim.workload", start)
	return m
}

// timedPolicy times the simulator's decision phase and counts the
// actions each decision carries.
type timedPolicy struct {
	inner   policy.Policy
	tr      *tracer
	actions *int64
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Decide(ctx *policy.Context) policy.Decision {
	start := time.Now()
	d := p.inner.Decide(ctx)
	p.tr.phase("sim.decide", start)
	*p.actions += int64(len(d.Replications) + len(d.Migrations) + len(d.Suicides))
	return d
}
