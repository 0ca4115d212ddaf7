package accounting

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// fixture: three writer hosts and one target host around one switch;
// the shared counter lives in switch SRAM allocated by the agent.
type fixture struct {
	sim      *netsim.Sim
	sw       *asic.Switch
	writers  []*endhost.Host
	probers  []*endhost.Prober
	target   *endhost.Host
	addr     mem.Addr
	sramSlot int
}

func setup(t *testing.T) *fixture {
	t.Helper()
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	sw := n.AddSwitch(asic.Config{ID: 5, Ports: 8})
	f := &fixture{sim: sim, sw: sw}
	for i := 0; i < 3; i++ {
		h := n.AddHost()
		n.LinkHost(h, sw, topo.Mbps(100, 50*netsim.Microsecond))
		f.writers = append(f.writers, h)
		f.probers = append(f.probers, endhost.NewProber(h))
	}
	f.target = n.AddHost()
	n.LinkHost(f.target, sw, topo.Mbps(100, 50*netsim.Microsecond))
	n.PrimeL2(5 * netsim.Millisecond)

	a := agent.New(sw)
	task, err := a.Register("accounting", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.addr = task.Region.Base
	f.sramSlot = mem.SRAMIndex(f.addr)
	return f
}

// drive issues `per` increments of 1 from every writer, each writer
// pipelining its next Add behind the previous completion, with all
// writers running concurrently (in simulated time).
func drive(f *fixture, proto Protocol, per int) []*Counter {
	counters := make([]*Counter, len(f.writers))
	for i := range f.writers {
		c := NewCounter(f.probers[i], f.target.MAC, f.target.IP, f.sw.ID(), f.addr, proto)
		counters[i] = c
		remaining := per
		var next func(uint32)
		next = func(uint32) {
			remaining--
			if remaining > 0 {
				c.Add(1, next)
			}
		}
		c.Add(1, next)
	}
	f.sim.RunUntil(f.sim.Now() + 30*netsim.Second)
	return counters
}

func TestAtomicCountersLoseNothing(t *testing.T) {
	f := setup(t)
	counters := drive(f, Atomic, 50)
	got := f.sw.SRAM(f.sramSlot)
	if got != 150 {
		t.Fatalf("counter = %d, want 150 (3 writers x 50)", got)
	}
	var retries uint64
	for _, c := range counters {
		retries += c.Retries
		if c.Failures != 0 {
			t.Fatalf("abandoned updates: %d", c.Failures)
		}
	}
	// Concurrent writers on one switch must actually have conflicted;
	// otherwise the test proves nothing.
	if retries == 0 {
		t.Fatal("no CSTORE conflicts observed: writers never raced")
	}
	t.Logf("150 increments, %d CSTORE retries", retries)
}

func TestRacyCountersLoseUpdates(t *testing.T) {
	f := setup(t)
	drive(f, Racy, 50)
	got := f.sw.SRAM(f.sramSlot)
	if got == 150 {
		t.Fatal("racy protocol lost nothing: interleaving did not occur")
	}
	if got == 0 || got > 150 {
		t.Fatalf("counter = %d, expected partial loss", got)
	}
	t.Logf("racy result: %d of 150 survived", got)
}

func TestAtomicGatedToOneSwitch(t *testing.T) {
	// On a two-switch path, only the CEXEC-matching switch applies
	// the update.
	sim := netsim.New(1)
	n := topo.NewNetwork(sim)
	s1 := n.AddSwitch(asic.Config{ID: 1, Ports: 4})
	s2 := n.AddSwitch(asic.Config{ID: 2, Ports: 4})
	n.LinkSwitches(s1, s2, topo.Mbps(100, 0))
	w := n.AddHost()
	tgt := n.AddHost()
	n.LinkHost(w, s1, topo.Mbps(100, 0))
	n.LinkHost(tgt, s2, topo.Mbps(100, 0))
	n.PrimeL2(5 * netsim.Millisecond)

	prober := endhost.NewProber(w)
	addr := mem.SRAMBase
	c := NewCounter(prober, tgt.MAC, tgt.IP, 2, addr, Atomic)
	var final uint32
	c.Add(7, func(v uint32) { final = v })
	sim.RunUntil(sim.Now() + netsim.Second)

	if final != 7 {
		t.Fatalf("completion value = %d", final)
	}
	if s2.SRAM(0) != 7 {
		t.Fatalf("target switch counter = %d", s2.SRAM(0))
	}
	if s1.SRAM(0) != 0 {
		t.Fatalf("non-target switch was written: %d", s1.SRAM(0))
	}
}

// TestReadBacksOffOnInconclusiveEchoes: a read gated at a switch that
// is not on the path comes back unexecuted every time.  The counter
// must not trust it; it retries after endhost.GatedRetryDelay (2ms
// doubling to 64ms) and drops the read once DefaultRetries attempts
// are spent.
func TestReadBacksOffOnInconclusiveEchoes(t *testing.T) {
	f := setup(t)
	c := NewCounter(f.probers[0], f.target.MAC, f.target.IP, f.sw.ID()+1, f.addr, Atomic)
	start := f.sim.Now()
	c.Add(1, func(uint32) { t.Error("Add completed on an unexecuted read") })

	// Attempts leave at 0, 2, 6, 14, 30 and 62ms plus one RTT each, the
	// seventh not before 126ms: six echoes by 100ms.
	f.sim.RunUntil(start + 100*netsim.Millisecond)
	if c.Inconclusive != 6 {
		t.Fatalf("Inconclusive after 100ms = %d, want 6", c.Inconclusive)
	}
	// The other ten wait 64ms each; the last leaves at about 702ms.
	f.sim.RunUntil(start + 2*netsim.Second)
	if c.Inconclusive != DefaultRetries {
		t.Fatalf("Inconclusive = %d, want %d", c.Inconclusive, DefaultRetries)
	}
	if got := f.sw.SRAM(f.sramSlot); got != 0 {
		t.Fatalf("tally = %d, want 0", got)
	}
}
