package tcpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// faultyView fails every access after `okOps` successful ones, to walk
// each opcode's error path.
type faultyView struct {
	okOps int
	calls int
}

var errInjected = errors.New("injected memory fault")

func (v *faultyView) access() error {
	v.calls++
	if v.calls > v.okOps {
		return errInjected
	}
	return nil
}

func (v *faultyView) Load(a mem.Addr) (uint32, error) {
	if err := v.access(); err != nil {
		return 0, err
	}
	return 1, nil
}

func (v *faultyView) Store(a mem.Addr, val uint32) error { return v.access() }

func TestEveryOpcodeSurfacesMemoryFaults(t *testing.T) {
	sram := uint16(mem.SRAMBase)
	cases := []struct {
		name string
		tpp  func() *core.TPP
		ok   int // accesses that succeed before the fault
	}{
		{"LOAD", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpLOAD, A: sram, B: 0}}, 1)
		}, 0},
		{"STORE", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpSTORE, A: sram, B: 0}}, 1)
		}, 0},
		{"PUSH", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPUSH, A: sram}}, 1)
		}, 0},
		{"POP", func() *core.TPP {
			p := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPOP, A: sram}}, 1)
			p.Ptr = 4
			return p
		}, 0},
		{"CSTORE-load", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCSTORE, A: sram, B: 0}}, 3)
		}, 0},
		{"CSTORE-store", func() *core.TPP {
			p := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCSTORE, A: sram, B: 0}}, 3)
			p.SetWord(0, 1) // cond matches the view's load value 1
			return p
		}, 1},
		{"CEXEC", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCEXEC, A: sram, B: 0}}, 2)
		}, 0},
		{"ADD", func() *core.TPP {
			return core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpADD, A: sram, B: 0}}, 1)
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tpp := c.tpp()
			res := Exec(tpp, &faultyView{okOps: c.ok})
			if res.Fault == nil {
				t.Fatal("fault not surfaced")
			}
			if !errors.Is(res.Fault, errInjected) {
				t.Fatalf("unexpected fault: %v", res.Fault)
			}
			if tpp.Flags&core.FlagError == 0 {
				t.Fatal("FlagError not set")
			}
		})
	}
}

func TestCSTOREOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	// B+2 (the result slot) falls outside packet memory.
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(sramAddr), B: 0},
	}, 2)
	if res := Exec(tpp, view); res.Fault == nil {
		t.Fatal("out-of-range CSTORE result slot accepted")
	}
	// cond slot itself out of range.
	tpp2 := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCSTORE, A: uint16(sramAddr), B: 5},
	}, 2)
	if res := Exec(tpp2, view); res.Fault == nil {
		t.Fatal("out-of-range CSTORE cond slot accepted")
	}
}

func TestCEXECOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(switchIDAddr), B: 1},
	}, 2) // value slot B+1 = 2 out of range
	if res := Exec(tpp, view); res.Fault == nil {
		t.Fatal("out-of-range CEXEC operand accepted")
	}
}

func TestLoadStoreOutOfRangeOperands(t *testing.T) {
	view := newFakeView()
	for _, op := range []core.Opcode{core.OpLOAD, core.OpSTORE, core.OpADD} {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: op, A: uint16(sramAddr), B: 9},
		}, 2)
		if res := Exec(tpp, view); res.Fault == nil {
			t.Fatalf("%v with out-of-range packet word accepted", op)
		}
	}
}

func TestInvalidTPPFaultsBeforeExecution(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, nil, 1)
	tpp.Mode = 9 // structurally invalid
	res := Exec(tpp, view)
	if res.Fault == nil || res.Executed != 0 {
		t.Fatalf("invalid TPP executed: %+v", res)
	}
}

func TestHopModeOutOfRangeEffectiveAddress(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(switchIDAddr), B: 0},
	}, 4)
	tpp.HopLen = 8 // two words per hop
	// Two hops fit in the 4-word memory; the third hop's effective
	// word (4) is out of range.
	for hop := 0; hop < 2; hop++ {
		if res := Exec(tpp, view); res.Fault != nil {
			t.Fatalf("hop %d faulted early: %v", hop, res.Fault)
		}
	}
	res := Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("overflowing hop write accepted")
	}
	// Hop counter still advanced (the packet moved on).
	if tpp.Ptr != 3 {
		t.Fatalf("hop counter = %d", tpp.Ptr)
	}
}

// Regression: a wire-supplied stack pointer past the end of packet
// memory must make POP fault, not panic — switches execute
// attacker-controlled programs and cannot crash.
func TestPOPWithStackPointerPastMemoryFaults(t *testing.T) {
	view := newFakeView()
	tpp := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPOP, A: uint16(sramAddr)},
	}, 2)
	tpp.Ptr = 48 // aligned, beyond the 8 bytes of packet memory
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("POP panicked: %v", r)
		}
	}()
	res := Exec(tpp, view)
	if res.Fault == nil {
		t.Fatal("POP past packet memory accepted")
	}
	if tpp.Flags&core.FlagError == 0 {
		t.Fatal("fault did not set FlagError")
	}
}

// faultCase is a program that parses but hits one TCPU fault class on
// a device limited to 5 instructions.
type faultCase struct {
	name     string
	sentinel error
	tpp      *core.TPP
}

func faultCases() []faultCase {
	sram := uint16(mem.SRAMBase)
	modeMismatch := core.NewTPP(core.AddrHop, []core.Instruction{{Op: core.OpPUSH, A: sram}}, 2)
	modeMismatch.HopLen = 4
	overflow := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)}}, 1)
	overflow.Ptr = 4
	return []faultCase{
		{"too-long", ErrProgramTooLong, core.NewTPP(core.AddrStack, make([]core.Instruction, 7), 1)},
		{"mode-mismatch", ErrModeMismatch, modeMismatch},
		{"stack-overflow", ErrStackOverflow, overflow},
		{"stack-underflow", ErrStackUnderflow, core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPOP, A: sram}}, 1)},
		{"packet-mem-oob", ErrPacketMemOOB, core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 9}}, 1)},
	}
}

// TestFaultSentinels is the regression test for the fault-path
// allocation fix: every fault class is a typed, errors.Is-able
// sentinel; the bare sentinel is returned when spans are off (no
// per-fault formatting on the hot path) and the formatted detail only
// appears when span recording is on.
func TestFaultSentinels(t *testing.T) {
	for _, c := range faultCases() {
		t.Run(c.name, func(t *testing.T) {
			// Spans off: the bare sentinel, nothing formatted.
			cfg := Config{MaxInstructions: 5}
			if r := cfg.Exec(c.tpp.Clone(), newFakeView()); r.Fault != c.sentinel {
				t.Fatalf("spans=off: fault = %v (%T), want the bare sentinel %v",
					r.Fault, r.Fault, c.sentinel)
			}

			// Spans on: still errors.Is-able, now with detail.
			cfg.RecordSpans = true
			r := cfg.Exec(c.tpp.Clone(), newFakeView())
			if !errors.Is(r.Fault, c.sentinel) {
				t.Fatalf("spans=on: fault %v is not errors.Is(%v)", r.Fault, c.sentinel)
			}
			if r.Fault.Error() == c.sentinel.Error() {
				t.Fatalf("spans=on: fault %q carries no detail", r.Fault)
			}
			if !strings.Contains(r.Fault.Error(), c.sentinel.Error()) {
				t.Fatalf("detail %q does not wrap sentinel text %q", r.Fault, c.sentinel)
			}
		})
	}
}

// TestUnknownOpcodeSentinel covers the defense-in-depth runtime
// opcode fault directly: opcodes outside the instruction set are
// rejected statically by core.TPP.Validate, so the interpreter's own
// unknown-opcode arm can only fire if the two sets ever diverge — it
// must still follow the sentinel contract.
func TestUnknownOpcodeSentinel(t *testing.T) {
	if got := (Config{}).faultOpcode(core.Opcode(200)); got != ErrUnknownOpcode {
		t.Fatalf("spans=off: %v, want the bare sentinel", got)
	}
	got := (Config{RecordSpans: true}).faultOpcode(core.Opcode(200))
	if !errors.Is(got, ErrUnknownOpcode) || got.Error() == ErrUnknownOpcode.Error() {
		t.Fatalf("spans=on: %v, want wrapped detail around ErrUnknownOpcode", got)
	}
}

// TestFaultPathZeroAlloc pins the bugfix itself: a faulting packet on
// the hot path (spans off) must not allocate — the old code built a
// fmt.Errorf per faulting packet, a DoS vector under a fault storm.
func TestFaultPathZeroAlloc(t *testing.T) {
	cfg := Config{MaxInstructions: 5}
	view := newFakeView()
	for _, c := range faultCases() {
		tpp, ptr := c.tpp, c.tpp.Ptr
		if avg := testing.AllocsPerRun(200, func() {
			tpp.Ptr, tpp.Flags = ptr, 0
			if r := cfg.Exec(tpp, view); r.Fault != c.sentinel {
				t.Fatalf("%s: fault = %v", c.name, r.Fault)
			}
		}); avg != 0 {
			t.Fatalf("%s: fault path allocated %.1f times per run, want 0", c.name, avg)
		}
	}
}
