package asic_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/tcpu"
	"repro/internal/topo"
)

// TestFloodCloneIndependence is the queue-conservation / aliasing audit
// for the pooled flood path: every flooded copy must be delivered
// exactly once, execute its own TPP, and share no mutable state with
// its siblings — a pooled clone that aliased another copy's packet
// memory would corrupt telemetry silently.
func TestFloodCloneIndependence(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{Ports: 4, TCPU: tcpu.Config{MaxInstructions: 16}})
	h1, h2, h3 := n.AddHost(), n.AddHost(), n.AddHost()
	for _, h := range []*endhost.Host{h1, h2, h3} {
		n.LinkHost(h, sw, edge)
	}
	// No PrimeL2: keep destinations unknown so every frame floods.

	var got2, got3 []*core.Packet
	h2.HandleDefault(func(p *core.Packet) { got2 = append(got2, p) })
	h3.HandleDefault(func(p *core.Packet) { got3 = append(got3, p) })

	const sends = 50
	for i := 0; i < sends; i++ {
		pkt := h1.NewPacket(core.MAC{0xde, 0xad, 0, 0, 0, 1}, 0x0a000099, 1000, 2000, 64)
		microburst.Instrument(pkt, 4)
		if !h1.Send(pkt) {
			t.Fatalf("send %d refused", i)
		}
		sim.RunUntil(sim.Now() + netsim.Millisecond)
	}
	sim.RunUntil(sim.Now() + 50*netsim.Millisecond)

	// Conservation: every flood delivers exactly one copy per egress,
	// nothing lost, nothing duplicated.
	if len(got2) != sends || len(got3) != sends {
		t.Fatalf("delivered %d/%d copies, want %d each", len(got2), len(got3), sends)
	}
	if sw.TPPsExecuted() != 2*sends {
		t.Fatalf("TCPU ran %d times, want %d (one per flooded copy)", sw.TPPsExecuted(), 2*sends)
	}

	for i := range got2 {
		a, b := got2[i], got3[i]
		if a == b {
			t.Fatalf("flood %d delivered the same *Packet to both hosts", i)
		}
		if a.TPP == nil || b.TPP == nil || a.TPP == b.TPP {
			t.Fatalf("flood %d: TPPs alias (a=%p b=%p)", i, a.TPP, b.TPP)
		}
		if a.TPP.Ptr != 4 || b.TPP.Ptr != 4 {
			t.Fatalf("flood %d: copies did not each execute once (ptr %d, %d)", i, a.TPP.Ptr, b.TPP.Ptr)
		}
		// Mutate one copy's packet memory and instruction slice; the
		// sibling must be unaffected (no shared backing arrays).
		before := b.TPP.Word(0)
		a.TPP.SetWord(0, ^before)
		if b.TPP.Word(0) != before {
			t.Fatalf("flood %d: packet memory aliased between flooded copies", i)
		}
		insBefore := b.TPP.Ins[0]
		a.TPP.Ins[0] = core.Instruction{Op: core.OpNOP}
		if b.TPP.Ins[0] != insBefore {
			t.Fatalf("flood %d: instruction slice aliased between flooded copies", i)
		}
		// Delivered packets are adopted: they must never claim pool
		// ownership once in host hands.
		if a.Pooled() || b.Pooled() {
			t.Fatalf("flood %d: delivered packet still marked pooled", i)
		}
	}
}
