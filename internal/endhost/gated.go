package endhost

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// Unexecuted is the sentinel result slots are pre-filled with before a
// gated probe departs.  A TPP can come back echoed without having
// executed at the gated switch — throttled by an admission gate,
// stripped en route, or halted by its CEXEC at every hop — and its
// result words then still hold whatever the sender wrote.  Zero would
// be ambiguous (a counter can legitimately be zero), so the sentinel
// makes "the program never ran there" distinguishable from every
// plausible executed outcome.  (A word that actually reaches
// 0xFFFFFFFF aliases the sentinel; 32-bit tallies are re-based long
// before that.)
const Unexecuted = ^uint32(0)

// GatedRetryDelay returns the pause before retrying a gated probe after
// retry consecutive inconclusive (or lost) attempts: 2ms, doubling per
// attempt to a 64ms cap.  An inconclusive echo usually means an
// admission gate throttled the program because the tenant is over its
// token-bucket share; retrying at echo pace (one RTT, often well under
// a refill interval) would just burn the next token and storm the
// gate, so retries back off to give the bucket time to refill.
func GatedRetryDelay(retry int) netsim.Time {
	d := 2 * netsim.Millisecond
	for ; retry > 0 && d < 64*netsim.Millisecond; retry-- {
		d *= 2
	}
	return d
}

// gatedOverhead is the instruction cost of the gate: the CEXEC switch
// match plus the atomic [Switch:Epoch] read.
const gatedOverhead = 2

// GatedChunkWords returns how many region words one gated chunk probe
// can read under the device instruction limit.
func GatedChunkWords(insLimit int) int { return insLimit - gatedOverhead }

// GatedChunkProgram builds one sweep probe: gated by CEXEC to execute
// only at the switch with the given id, it reads the switch's boot
// epoch and up to insLimit-2 region words in a single TCPU execution —
// atomically, so a crash-restart can never interleave between the
// epoch and the values it vouches for.  Packet memory layout:
//
//	word 0: 0xFFFFFFFF           (CEXEC mask)
//	word 1: switchID             (CEXEC value)
//	word 2: [Switch:Epoch]       (result; Unexecuted until it runs)
//	word 3+i: addrs[i]           (results; Unexecuted until it runs)
func GatedChunkProgram(switchID uint32, addrs []mem.Addr, insLimit int) (*core.TPP, error) {
	if len(addrs) == 0 || len(addrs) > GatedChunkWords(insLimit) {
		return nil, fmt.Errorf("endhost: %d addresses do not fit a %d-instruction gated chunk", len(addrs), insLimit)
	}
	ins := make([]core.Instruction, 0, gatedOverhead+len(addrs))
	ins = append(ins,
		core.Instruction{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		core.Instruction{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchEpoch), B: 2},
	)
	for i, a := range addrs {
		ins = append(ins, core.Instruction{Op: core.OpLOAD, A: uint16(a), B: uint16(3 + i)})
	}
	tpp := core.NewTPP(core.AddrStack, ins, 3+len(addrs))
	tpp.SetWord(0, 0xFFFFFFFF)
	tpp.SetWord(1, switchID)
	for w := 2; w < 3+len(addrs); w++ {
		tpp.SetWord(w, Unexecuted)
	}
	return tpp, nil
}

// DecodeGatedChunk extracts a gated chunk probe's results from its
// echo into vals, one region word per element.  ok is false when the
// program never executed at the gated switch (the epoch slot still
// holds the sentinel) or any value slot does — the caller should drop
// the whole chunk and retry or let the next sweep re-read it, rather
// than fold garbage; vals is then partly written.  The caller owns
// vals, so a single-word read decodes into a stack array.
func DecodeGatedChunk(e *core.TPP, vals []uint32) (epoch uint32, ok bool) {
	if e == nil || e.MemWords() < 3+len(vals) {
		return 0, false
	}
	epoch = e.Word(2)
	if epoch == Unexecuted {
		return 0, false
	}
	for i := range vals {
		vals[i] = e.Word(3 + i)
		if vals[i] == Unexecuted {
			return 0, false
		}
	}
	return epoch, true
}
