// Package tcpu implements the tiny CPU of §3 of the TPP paper: the
// in-dataplane RISC processor that sequentially executes a packet's
// tiny program against the switch's unified memory map.
//
// The TCPU "is a Reduced Instruction Set Computer (RISC) processor that
// executes instructions in a five stage pipeline"; Exec models the
// architectural effects (every load, store and header update) exactly,
// and Cycles models the pipeline timing (1 instruction per clock with a
// 4-cycle latency) so the §3.3 line-rate feasibility argument can be
// checked quantitatively.
package tcpu

import (
	"repro/internal/core"
	"repro/internal/mem"
)

// DefaultMaxInstructions is the per-device program length limit.  §1
// suggests "restricting TPPs to (say) five instructions per-packet";
// the limit is an ASIC configuration knob, so we default to the paper's
// suggestion.
const DefaultMaxInstructions = 5

// Config selects per-ASIC execution limits.
type Config struct {
	// MaxInstructions caps the program length this TCPU accepts; a
	// longer program faults (end-hosts are expected to split work
	// across multiple TPPs).  Zero means DefaultMaxInstructions.
	MaxInstructions int
	// RecordSpans makes Exec fill Result.Spans with one entry per
	// executed instruction (retire cycle, memory accesses, stalls),
	// so executions can be audited against the §3.3 line-rate budget.
	// Off by default: span recording allocates.
	RecordSpans bool
}

func (c Config) maxIns() int {
	if c.MaxInstructions <= 0 {
		return DefaultMaxInstructions
	}
	return c.MaxInstructions
}

// ConditionalStorer is implemented by memory views that can perform the
// CSTORE compare-and-store atomically, giving the "stronger
// (linearizable) notion of consistency for memory updates" of §2.2.
// When a view does not implement it, Exec falls back to a non-atomic
// load/store pair, which is sufficient under a single-threaded
// dataplane.
type ConditionalStorer interface {
	CondStore(a mem.Addr, cond, v uint32) (old uint32, err error)
}

// Result reports what a TCPU did with one TPP.
type Result struct {
	// Executed counts instructions that entered the execute stage
	// (including a failing CEXEC, excluding instructions it skipped).
	Executed int
	// Loads and Stores count switch-memory accesses performed.
	Loads  int
	Stores int
	// Halted is set when a CEXEC predicate failed: "all instructions
	// that follow a failed CEXEC check will not be executed".
	Halted bool
	// Fault holds the first memory/validation fault, if any;  the
	// TCPU sets core.FlagError on the packet and stops, but the
	// packet still forwards.
	Fault error
	// Cycles is the pipeline occupancy per the Figure 5 timing model.
	Cycles int
	// Spans holds per-instruction execution spans when
	// Config.RecordSpans is set (nil otherwise).
	Spans []InsSpan

	// cstoreStalls counts successful conditional stores, each of
	// which occupies both memory stages (one extra stall cycle).
	cstoreStalls int
}

// Exec runs the TPP against view with the default configuration.
func Exec(t *core.TPP, view mem.View) Result {
	return Config{}.Exec(t, view)
}

// Exec runs every instruction of the TPP sequentially, updating packet
// memory, switch memory (through view) and the TPP header (stack
// pointer or hop counter).  It never panics on malformed programs; any
// violation faults the packet instead, because a switch cannot refuse
// to forward line-rate traffic.
//
// With RecordSpans off, Exec allocates nothing, faulting programs
// included (see errors.go).
//
//alloc:free
func (c Config) Exec(t *core.TPP, view mem.View) (r Result) {
	defer func() {
		r.Cycles = cyclesFor(&r)
		if t.Mode == core.AddrHop {
			// The hop counter advances at every TCPU so the next
			// switch writes the next per-hop record, even if this
			// execution halted or faulted.
			t.Ptr++
		}
		if r.Fault != nil {
			t.Flags |= core.FlagError
		}
	}()

	if len(t.Ins) > c.maxIns() {
		r.Fault = c.faultTooLong(len(t.Ins))
		return r
	}
	if err := t.Validate(); err != nil {
		r.Fault = err
		return r
	}

	for _, in := range t.Ins {
		r.Executed++
		loads, stores, stalls := r.Loads, r.Stores, r.cstoreStalls
		ok := c.step(t, in, view, &r)
		if c.RecordSpans {
			if r.Spans == nil {
				//alloc:allow per-instruction spans allocate only under tracing (RecordSpans)
				r.Spans = make([]InsSpan, 0, len(t.Ins))
			}
			r.Spans = append(r.Spans, InsSpan{
				Index:       r.Executed - 1,
				Op:          in.Op,
				RetireCycle: PipelineLatency + r.Executed - 1 + r.cstoreStalls,
				Loads:       r.Loads - loads,
				Stores:      r.Stores - stores,
				Stall:       r.cstoreStalls > stalls,
				Fault:       r.Fault != nil,
				Halted:      r.Halted,
			})
		}
		if !ok {
			return r
		}
	}
	return r
}

// step executes one instruction against the view, mutating r's access
// counters and fault state.  It returns false when execution must stop:
// a fault, or a failed CEXEC predicate.
//
//alloc:free
func (c Config) step(t *core.TPP, in core.Instruction, view mem.View, r *Result) bool {
	switch in.Op {
	case core.OpNOP:

	case core.OpLOAD:
		v, err := view.Load(mem.Addr(in.A))
		if err != nil {
			r.Fault = err
			return false
		}
		r.Loads++
		if !c.putWord(t, r, t.EffectiveWord(in.B), v) {
			return false
		}

	case core.OpSTORE:
		v, ok := c.getWord(t, r, t.EffectiveWord(in.B))
		if !ok {
			return false
		}
		if err := view.Store(mem.Addr(in.A), v); err != nil {
			r.Fault = err
			return false
		}
		r.Stores++

	case core.OpPUSH:
		if t.Mode != core.AddrStack {
			//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
			r.Fault = c.faultMode(in.Op)
			return false
		}
		v, err := view.Load(mem.Addr(in.A))
		if err != nil {
			r.Fault = err
			return false
		}
		r.Loads++
		if int(t.Ptr)+4 > len(t.Mem) {
			//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
			r.Fault = c.faultStackOverflow(t.Ptr, len(t.Mem))
			return false
		}
		t.SetWord(int(t.Ptr)/4, v)
		t.Ptr += 4

	case core.OpPOP:
		if t.Mode != core.AddrStack {
			//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
			r.Fault = c.faultMode(in.Op)
			return false
		}
		if t.Ptr < 4 {
			//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
			r.Fault = c.faultStackUnderflow(t.Ptr)
			return false
		}
		if int(t.Ptr) > len(t.Mem) {
			// A wire-supplied stack pointer can point past packet
			// memory; faulting (not panicking) keeps the dataplane
			// robust against crafted frames.
			//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
			r.Fault = c.faultStackOOB(t.Ptr, len(t.Mem))
			return false
		}
		t.Ptr -= 4
		v := t.Word(int(t.Ptr) / 4)
		if err := view.Store(mem.Addr(in.A), v); err != nil {
			r.Fault = err
			return false
		}
		r.Stores++

	case core.OpCSTORE:
		// CSTORE dst,cond,src: cond and src live in packet
		// memory at B and B+1; the old value of dst is written
		// back at B+2 so the end-host observes success/failure.
		base := t.EffectiveWord(in.B)
		cond, ok := c.getWord(t, r, base)
		if !ok {
			return false
		}
		src, ok := c.getWord(t, r, base+1)
		if !ok {
			return false
		}
		old, err := c.condStore(view, mem.Addr(in.A), cond, src, r)
		if err != nil {
			r.Fault = err
			return false
		}
		if !c.putWord(t, r, base+2, old) {
			return false
		}

	case core.OpCEXEC:
		// CEXEC reg,mask,value: execute the rest only if
		// (reg & mask) == value; mask and value live in packet
		// memory at B and B+1.
		base := t.EffectiveWord(in.B)
		mask, ok := c.getWord(t, r, base)
		if !ok {
			return false
		}
		val, ok := c.getWord(t, r, base+1)
		if !ok {
			return false
		}
		v, err := view.Load(mem.Addr(in.A))
		if err != nil {
			r.Fault = err
			return false
		}
		r.Loads++
		if v&mask != val {
			r.Halted = true
			return false
		}

	case core.OpADD, core.OpSUB, core.OpMAX:
		v, err := view.Load(mem.Addr(in.A))
		if err != nil {
			r.Fault = err
			return false
		}
		r.Loads++
		w := t.EffectiveWord(in.B)
		cur, ok := c.getWord(t, r, w)
		if !ok {
			return false
		}
		switch in.Op {
		case core.OpADD:
			cur += v
		case core.OpSUB:
			cur -= v
		case core.OpMAX:
			if v > cur {
				cur = v
			}
		}
		if !c.putWord(t, r, w, cur) {
			return false
		}

	default:
		//alloc:allow fault detail boxes operands only under tracing (RecordSpans)
		r.Fault = c.faultOpcode(in.Op)
		return false
	}
	return true
}

// condStore performs the compare-and-store, atomically when the view
// supports it.
func (c Config) condStore(view mem.View, a mem.Addr, cond, src uint32, r *Result) (uint32, error) {
	if cs, ok := view.(ConditionalStorer); ok {
		old, err := cs.CondStore(a, cond, src)
		if err == nil {
			r.Loads++
			if old == cond {
				r.Stores++
				r.cstoreStalls++
			}
		}
		return old, err
	}
	old, err := view.Load(a)
	if err != nil {
		return 0, err
	}
	r.Loads++
	if old == cond {
		if err := view.Store(a, src); err != nil {
			return 0, err
		}
		r.Stores++
		r.cstoreStalls++
	}
	return old, nil
}

// getWord reads packet-memory word i with bounds checking; on a
// violation it faults the result and returns ok=false.
func (c Config) getWord(t *core.TPP, r *Result, i int) (uint32, bool) {
	if !t.InRange(i) {
		r.Fault = c.faultPacketMem(i, t.MemWords())
		return 0, false
	}
	return t.Word(i), true
}

// putWord writes packet-memory word i with bounds checking.
func (c Config) putWord(t *core.TPP, r *Result, i int, v uint32) bool {
	if !t.InRange(i) {
		r.Fault = c.faultPacketMem(i, t.MemWords())
		return false
	}
	t.SetWord(i, v)
	return true
}
