package tcpu

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// experimentPrograms returns one TPP per distinct program the
// experiments inject, reconstructed from their construction sites, plus
// the header state (pre-filled memory, stack pointer, hop-mode fields)
// each sender sets.  They are the zero-allocation corpus and the
// FuzzExec seeds, so the executor is checked on exactly the programs
// the paper's tasks run.
func experimentPrograms() map[string]*core.TPP {
	sramStat := uint16(mem.SRAMBase + 3)
	swID := uint16(mem.SwitchBase + mem.SwitchID)
	swEpoch := uint16(mem.SwitchBase + mem.SwitchEpoch)
	progs := map[string]*core.TPP{}

	// microburst.TelemetryProgram: the §2.1 per-hop queue snapshot.
	progs["microburst-telemetry"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
	}, 4)

	// microburst.BreakdownProgram: queue bytes plus drain capacity.
	progs["microburst-breakdown"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortCapacity)},
	}, 8)

	// ndb.TraceProgram: the §2.3 four-word per-hop trace.
	progs["ndb-trace"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: swID},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedID)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketInputPort)},
		{Op: core.OpPUSH, A: uint16(mem.PacketBase + mem.PacketMatchedVer)},
	}, 20)

	// wireless.SNRProgram: per-hop port SNR.
	progs["wireless-snr"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortSNR)},
	}, 3)

	// gated builds a program led by the CEXEC gate the controllers use
	// (SwitchID == 7, mask and value in words 0 and 1), with words 2
	// onward pre-filled with vals.
	gated := func(memWords int, ins []core.Instruction, vals ...uint32) *core.TPP {
		ins = append([]core.Instruction{{Op: core.OpCEXEC, A: swID, B: 0}}, ins...)
		t := core.NewTPP(core.AddrStack, ins, memWords)
		t.SetWord(0, 0xFFFFFFFF)
		t.SetWord(1, 7)
		for i, v := range vals {
			t.SetWord(2+i, v)
		}
		return t
	}

	// rcp.StarController.sendUpdate: gated rate write.
	rcpUpdate := gated(3, []core.Instruction{{Op: core.OpSTORE, A: sramStat, B: 2}}, 123456)
	rcpUpdate.Ptr = 12
	progs["rcp-star-update"] = rcpUpdate

	// Gated value+epoch read: accounting's read before it moved onto
	// endhost.GatedChunkProgram (epoch first), kept as an interpreter case.
	progs["accounting-read"] = gated(4, []core.Instruction{
		{Op: core.OpLOAD, A: sramStat, B: 2},
		{Op: core.OpLOAD, A: swEpoch, B: 3},
	})

	// accounting linearizable add: gated CSTORE.
	progs["accounting-cstore"] = gated(5, []core.Instruction{
		{Op: core.OpCSTORE, A: sramStat, B: 2},
	}, 10, 14)

	// accounting racy add: gated blind STORE.
	progs["accounting-racy"] = gated(3, []core.Instruction{
		{Op: core.OpSTORE, A: sramStat, B: 2},
	}, 99)

	// inband scenario RTT measure: single LOAD.
	progs["inband-measure"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpLOAD, A: swID, B: 0},
	}, 1)

	// inband.Writer: gated CSTORE plus epoch read.
	progs["inband-writer"] = gated(6, []core.Instruction{
		{Op: core.OpCSTORE, A: sramStat, B: 2},
		{Op: core.OpLOAD, A: swEpoch, B: 5},
	}, 4, 5)

	// endhost.GatedChunkProgram: gate plus a LOAD sweep.
	progs["endhost-gated-chunk"] = gated(5, []core.Instruction{
		{Op: core.OpLOAD, A: sramStat, B: 3},
		{Op: core.OpLOAD, A: sramStat + 1, B: 4},
	})

	// endhost.CollectProgram: a PUSH per statistic.
	progs["endhost-collect"] = core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		{Op: core.OpPUSH, A: uint16(mem.PortBase + mem.PortCapacity)},
	}, 6)

	// faults rogue tenant: a blind forged STORE.
	rogue := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpSTORE, A: sramStat, B: 0},
	}, 1)
	rogue.SetWord(0, 0xDEADBEEF)
	progs["faults-rogue-write"] = rogue

	// Hop-addressed variant of the ndb trace (the DESIGN.md §5
	// addressing-mode ablation).
	hop := core.NewTPP(core.AddrHop, []core.Instruction{
		{Op: core.OpLOAD, A: swID, B: 0},
		{Op: core.OpLOAD, A: uint16(mem.QueueBase + mem.QueueBytes), B: 1},
	}, 8)
	hop.HopLen = 8
	progs["hop-mode-trace"] = hop

	return progs
}

// seededView returns a view pre-seeded with the words the experiment
// programs read and gate on (SwitchID 7, a queue depth, an SRAM
// counter).
func seededView() *fakeView {
	v := newFakeView()
	v.words[mem.Addr(mem.SwitchBase+mem.SwitchID)] = 7
	v.words[mem.Addr(mem.QueueBase+mem.QueueBytes)] = 1500
	v.words[mem.Addr(mem.SRAMBase+3)] = 10
	return v
}

// TestExecZeroAlloc pins the executor's allocation contract: with
// spans off, running any experiment program allocates nothing.
func TestExecZeroAlloc(t *testing.T) {
	cfg := Config{MaxInstructions: 16}
	for name, orig := range experimentPrograms() {
		tpp := orig.Clone()
		view := seededView()
		if avg := testing.AllocsPerRun(200, func() {
			tpp.Ptr, tpp.Flags = orig.Ptr, orig.Flags
			copy(tpp.Mem, orig.Mem)
			if r := cfg.Exec(tpp, view); r.Fault != nil {
				t.Fatalf("%s: %v", name, r.Fault)
			}
		}); avg != 0 {
			t.Fatalf("%s: Exec allocated %.1f times per run, want 0", name, avg)
		}
	}
}

// sentinels are the TCPU's own fault classes.
var sentinels = []error{
	ErrProgramTooLong, ErrModeMismatch, ErrStackOverflow, ErrStackUnderflow,
	ErrStackOOB, ErrPacketMemOOB, ErrUnknownOpcode,
}

// FuzzExec checks the executor's contract on arbitrary wire programs.
// On any bytes core.ParseTPP accepts: serialization round-trips; Exec
// does not panic under any device limit, with spans off or on;
// FlagError is set exactly when a fault is reported; and span recording
// changes nothing but Result.Spans and the fault's detail text — same
// counters, packet memory, header and switch memory, and a fault that
// matches the same sentinel.
func FuzzExec(f *testing.F) {
	for _, prog := range experimentPrograms() {
		f.Add(prog.AppendTo(nil), uint8(5))
	}
	// A corrupt header and an unknown-opcode body, which the parser
	// must refuse, and programs that fault at run time.
	corrupt := core.NewTPP(core.AddrStack, nil, 1)
	corrupt.Version = 9
	f.Add(corrupt.AppendTo(nil), uint8(5))
	unknown := core.NewTPP(core.AddrStack, []core.Instruction{{Op: 99, A: 1, B: 1}}, 1)
	f.Add(unknown.AppendTo(nil), uint8(1))
	for _, c := range faultCases() {
		f.Add(c.tpp.AppendTo(nil), uint8(5))
	}

	f.Fuzz(func(t *testing.T, wire []byte, maxIns uint8) {
		var tpp core.TPP
		n, err := core.ParseTPP(wire, &tpp)
		if err != nil {
			return // not a TPP; parsing is fuzzed elsewhere
		}
		// The reserved header byte is ignored on parse and written as
		// zero.
		want := append([]byte(nil), wire[:n]...)
		want[core.TPPHeaderLen-1] = 0
		if got := tpp.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendTo does not round-trip:\n  in:  %x\n  out: %x", want, got)
		}
		// FlagError is sticky across hops; clear it to see what this
		// execution sets.
		tpp.Flags &^= core.FlagError

		limit := int(int8(maxIns)) // negative and zero select the default
		off, on := tpp.Clone(), tpp.Clone()
		voff, von := seededView(), seededView()
		roff := Config{MaxInstructions: limit}.Exec(off, voff)
		ron := Config{MaxInstructions: limit, RecordSpans: true}.Exec(on, von)

		if (roff.Fault != nil) != (off.Flags&core.FlagError != 0) ||
			(ron.Fault != nil) != (on.Flags&core.FlagError != 0) {
			t.Fatalf("FlagError disagrees with the fault: spans=off %v flags %#x, spans=on %v flags %#x",
				roff.Fault, off.Flags, ron.Fault, on.Flags)
		}
		if (roff.Fault == nil) != (ron.Fault == nil) {
			t.Fatalf("fault mismatch: spans=off %v, spans=on %v", roff.Fault, ron.Fault)
		}
		for _, s := range sentinels {
			if errors.Is(roff.Fault, s) != errors.Is(ron.Fault, s) {
				t.Fatalf("faults disagree on %v: spans=off %v, spans=on %v", s, roff.Fault, ron.Fault)
			}
		}
		if roff.Spans != nil || len(ron.Spans) != ron.Executed {
			t.Fatalf("spans: %d with spans off, %d for %d executed with spans on",
				len(roff.Spans), len(ron.Spans), ron.Executed)
		}

		roff.Fault, ron.Fault, ron.Spans = nil, nil, nil
		if !reflect.DeepEqual(roff, ron) {
			t.Fatalf("result differs:\n  spans=off: %+v\n  spans=on:  %+v", roff, ron)
		}
		if !bytes.Equal(off.AppendTo(nil), on.AppendTo(nil)) {
			t.Fatal("packet memory or header differs between spans=off and spans=on")
		}
		if !reflect.DeepEqual(voff.words, von.words) {
			t.Fatal("switch memory differs between spans=off and spans=on")
		}
	})
}
