package tcpu

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// goldenFile holds, one line per case, every observable of a run — the
// Result, the fault text, the mutated TPP header and packet memory, and
// the view's memory — as recorded from the compiled executor before it
// was removed.  That executor was proven byte-identical to the
// interpreter, so these records pin that removing it changed nothing a
// switch can observe.  The file has no generator: an intended change
// to the interpreter's behaviour edits it by hand.
const goldenFile = "testdata/compiled.golden"

// readGolden loads goldenFile as case name -> record.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, rec, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		golden[name] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// execRecord runs a clone of tpp under cfg against a seeded view and
// renders every observable of the run on one line.
func execRecord(tpp *core.TPP, cfg Config) string {
	t := tpp.Clone()
	v := seededView()
	r := cfg.Exec(t, v)
	fault := "<nil>"
	if r.Fault != nil {
		fault = r.Fault.Error()
	}
	r.Fault = nil
	addrs := make([]mem.Addr, 0, len(v.words))
	for a := range v.words {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var view strings.Builder
	for _, a := range addrs {
		fmt.Fprintf(&view, " %d=%d", a, v.words[a])
	}
	return fmt.Sprintf("result=%+v fault=%q ptr=%d flags=%#x hoplen=%d mem=%x view=[%s]",
		r, fault, t.Ptr, t.Flags, t.HopLen, t.Mem, strings.TrimSpace(view.String()))
}

// checkGolden fails the test unless the interpreter's record for the
// named case matches the compiled executor's.
func checkGolden(t *testing.T, golden map[string]string, name string, tpp *core.TPP, cfg Config) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s has no record for %q", goldenFile, name)
	}
	if got := execRecord(tpp, cfg); got != want {
		t.Fatalf("interpreter differs from the compiled executor:\n  interpreter: %s\n  compiled:    %s", got, want)
	}
}

// TestCompiledMatchesInterpreter checks the interpreter against the
// compiled executor's recorded behaviour on every experiment program,
// across device limits (including ones the programs exceed) and span
// recording.
func TestCompiledMatchesInterpreter(t *testing.T) {
	golden := readGolden(t)
	for name, prog := range experimentPrograms() {
		for _, maxIns := range []int{0, 2, 16} {
			for _, spans := range []bool{false, true} {
				sub := fmt.Sprintf("%s/max%d/spans=%v", name, maxIns, spans)
				t.Run(sub, func(t *testing.T) {
					checkGolden(t, golden, sub, prog, Config{MaxInstructions: maxIns, RecordSpans: spans})
				})
			}
		}
	}
}

// TestCompiledMatchesInterpreterOnFaults covers shapes the verifier
// would reject but a switch must still fault identically on: bad
// version, bad mode, misaligned header fields, stack misuse, unknown
// opcodes, and unknown opcodes shadowed by a halting CEXEC.
func TestCompiledMatchesInterpreterOnFaults(t *testing.T) {
	golden := readGolden(t)
	sram := uint16(mem.SRAMBase)
	mk := func(mut func(*core.TPP)) *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPUSH, A: uint16(mem.QueueBase + mem.QueueBytes)},
		}, 2)
		mut(tpp)
		return tpp
	}
	cases := map[string]*core.TPP{
		"bad-version":    mk(func(t *core.TPP) { t.Version = 9 }),
		"bad-mode":       mk(func(t *core.TPP) { t.Mode = 3 }),
		"misaligned-ptr": mk(func(t *core.TPP) { t.Ptr = 3 }),
		"push-overflow":  mk(func(t *core.TPP) { t.Ptr = 8 }),
		"pop-underflow": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpPOP, A: sram}}, 2),
		"push-in-hop-mode": func() *core.TPP {
			t := core.NewTPP(core.AddrHop, []core.Instruction{
				{Op: core.OpPUSH, A: sram}}, 2)
			t.HopLen = 4
			return t
		}(),
		"unknown-opcode": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: 200, A: sram}}, 1),
		"unknown-opcode-after-halting-cexec": func() *core.TPP {
			t := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
				{Op: 200, A: sram},
			}, 2)
			t.SetWord(0, 0xFFFFFFFF)
			t.SetWord(1, 12345) // never matches SwitchID 7: CEXEC halts first
			return t
		}(),
		"packet-mem-oob": core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 9}}, 2),
		"too-long": core.NewTPP(core.AddrStack, make([]core.Instruction, 7), 1),
	}
	for name, prog := range cases {
		for _, spans := range []bool{false, true} {
			sub := fmt.Sprintf("%s/spans=%v", name, spans)
			t.Run(sub, func(t *testing.T) {
				checkGolden(t, golden, "faults/"+sub, prog, Config{MaxInstructions: 5, RecordSpans: spans})
			})
		}
	}
}
