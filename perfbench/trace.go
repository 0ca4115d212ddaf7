package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
)

// boundary names one layer boundary the traced run wraps.  Every span
// is recorded from the benchmark's own files: around calls it makes
// into a layer, or inside the netsim.Receiver shims and
// endhost.Handler wrappers whose wiring it owns.
type boundary uint8

const (
	bSlice       boundary = iota // netsim: one Sim.RunUntil slice
	bSwitchRx                    // asic: Switch.Receive, via a link shim
	bHostRx                      // endhost: Host.Receive, via a link shim
	bHandler                     // app: an endhost.Handler wrapper
	bSend                        // endhost: the benchmark's NewPacket+Send
	bProbe                       // endhost: the benchmark's Prober.ProbeCfg
	bCounterAdd                  // app: accounting.Counter.Add
	bHistObserve                 // app: inband.HistWriter.Observe
	bFabric                      // control: fabric Diff/Apply/Verify/Converge
	nBoundaries
)

var boundaryNames = [nBoundaries]string{
	"netsim.Sim.RunUntil", "asic.Switch.Receive", "endhost.Host.Receive",
	"app.Handler", "endhost.Send", "endhost.Prober.Probe",
	"accounting.Counter.Add", "inband.HistWriter.Observe", "fabric.Controller",
}

// maxSpans bounds the spans kept for the span file; durations beyond
// it still feed the per-boundary reservoirs and counts.
const maxSpans = 1 << 17

type span struct {
	id, parent uint64
	b          boundary
	start, end int64 // ns since the tracer started
}

// tracer records spans in memory.  The simulation is single-threaded,
// so the innermost open span is plain state: a span opened while
// another is open becomes its child.
type tracer struct {
	base  time.Time
	next  uint64
	cur   uint64
	spans []span
	dur   [nBoundaries]*reservoir
	count [nBoundaries]uint64
}

func newTracer(seed int64) *tracer {
	t := &tracer{base: time.Now()}
	for i := range t.dur {
		t.dur[i] = newReservoir(1<<16, seed+int64(i))
	}
	return t
}

type token struct {
	id, parent uint64
	start      int64
}

func (t *tracer) enter() token {
	t.next++
	tok := token{id: t.next, parent: t.cur, start: int64(time.Since(t.base))}
	t.cur = tok.id
	return tok
}

func (t *tracer) exit(b boundary, tok token) {
	end := int64(time.Since(t.base))
	t.cur = tok.parent
	d := end - tok.start
	t.count[b]++
	t.dur[b].add(float64(d))
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{tok.id, tok.parent, b, tok.start, end})
	}
}

// p50 is the median duration in ns of one boundary's spans.
func (t *tracer) p50(b boundary) float64 { return median(t.dur[b].vals) }

// writeSpans writes the kept spans as JSON lines, one per span, with a
// trailer line giving how many spans were recorded and how many kept.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var recorded uint64
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"span":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, boundaryNames[s.b], s.start, s.end)
	}
	for _, c := range t.count {
		recorded += c
	}
	fmt.Fprintf(w, `{"trailer":true,"recorded":%d,"kept":%d}`+"\n", recorded, len(t.spans))
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shim is a netsim.Receiver standing between a link the benchmark
// builds and its switch or host: it counts arrivals (for the per-link
// reconciliation) and, in the traced run, times each Receive.
type shim struct {
	dst      netsim.Receiver
	tr       *tracer
	b        boundary
	ch       *netsim.Channel
	arrivals uint64
}

func (s *shim) Receive(pkt *core.Packet, port int) {
	s.arrivals++
	tok := s.tr.enter()
	s.dst.Receive(pkt, port)
	s.tr.exit(s.b, tok)
}

// handler wraps an endhost.Handler in an app span when tracing.
func (e *env) handler(fn endhost.Handler) endhost.Handler {
	if e.tr == nil {
		return fn
	}
	tr := e.tr
	return func(p *core.Packet) {
		tok := tr.enter()
		fn(p)
		tr.exit(bHandler, tok)
	}
}

// timed runs fn as one span of boundary b when tracing.
func (e *env) timed(b boundary, fn func()) {
	if e.tr == nil {
		fn()
		return
	}
	tok := e.tr.enter()
	fn()
	e.tr.exit(b, tok)
}
