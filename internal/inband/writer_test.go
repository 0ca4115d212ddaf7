package inband

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestWriterBackoffResetsAfterConclusiveEcho: consecutive inconclusive
// echoes back the writer off along endhost.GatedRetryDelay (2ms, then
// 4ms), and a conclusive echo restarts the sequence, so the next
// inconclusive echo waits 2ms again rather than 8ms.
func TestWriterBackoffResetsAfterConclusiveEcho(t *testing.T) {
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 5, Ports: 4})
	src, dst := n.AddHost(), n.AddHost()
	n.LinkHost(src, sw, topo.Mbps(100, 50*netsim.Microsecond))
	n.LinkHost(dst, sw, topo.Mbps(100, 50*netsim.Microsecond))
	n.PrimeL2(5 * netsim.Millisecond)

	w := NewHistWriter(WriterConfig{
		Prober: endhost.NewProber(src), DstMAC: dst.MAC, DstIP: dst.IP,
		Spec: HistSpec{SwitchID: sw.ID(), Base: mem.SRAMBase, Buckets: 4},
	})
	// gate points the writer's CEXEC at the real switch, or at an id no
	// switch has, which makes every echo inconclusive.
	gate := func(ok bool) {
		w.cfg.Spec.SwitchID = sw.ID()
		if !ok {
			w.cfg.Spec.SwitchID = sw.ID() + 100
		}
	}
	// echo steps the simulation until the next echo lands and returns
	// its arrival time, to the microsecond; near compares two such
	// intervals within that resolution.
	echo := func() netsim.Time {
		t.Helper()
		seen := w.Inconclusive + w.Applied
		for deadline := sim.Now() + 100*netsim.Millisecond; sim.Now() < deadline; {
			sim.RunUntil(sim.Now() + netsim.Microsecond)
			if w.Inconclusive+w.Applied != seen {
				return sim.Now()
			}
		}
		t.Fatal("no echo within 100ms")
		return 0
	}
	near := func(got, want netsim.Time) bool {
		return got >= want-netsim.Microsecond && got <= want+netsim.Microsecond
	}

	gate(false)
	sent := sim.Now()
	w.Observe(1)
	e1 := echo()
	rtt := e1 - sent
	e2 := echo()
	if gap := e2 - e1; !near(gap, rtt+2*netsim.Millisecond) {
		t.Fatalf("first retry gap %v, want rtt %v + 2ms", gap, rtt)
	}
	gate(true)
	e3 := echo()
	if gap := e3 - e2; !near(gap, rtt+4*netsim.Millisecond) {
		t.Fatalf("second retry gap %v, want rtt %v + 4ms", gap, rtt)
	}
	if w.Applied != 1 || !w.Drained() {
		t.Fatalf("Applied %d, drained %v after a conclusive echo", w.Applied, w.Drained())
	}

	gate(false)
	sent = sim.Now()
	w.Observe(1)
	e4 := echo()
	e5 := echo()
	if !near(e4-sent, rtt) {
		t.Fatalf("fresh attempt took %v, want rtt %v", e4-sent, rtt)
	}
	if gap := e5 - e4; !near(gap, rtt+2*netsim.Millisecond) {
		t.Fatalf("retry gap after a conclusive echo %v, want rtt %v + 2ms", gap, rtt)
	}
	if w.Inconclusive != 4 {
		t.Fatalf("Inconclusive = %d, want 4", w.Inconclusive)
	}
}
