package accounting

import (
	"testing"

	"repro/internal/netsim"
)

// TestPollFlagsRebootDiscontinuity: a switch crash-restart zeroes the
// SRAM tally; the next Poll must report a flagged, re-based delta (the
// increments since the wipe) instead of the garbage negative delta a
// naive last-minus-current poller would compute.
func TestPollFlagsRebootDiscontinuity(t *testing.T) {
	f := setup(t)
	c := NewCounter(f.probers[0], f.target.MAC, f.target.IP, f.sw.ID(), f.addr, Atomic)

	type sample struct {
		value   uint32
		delta   int64
		discont bool
	}
	var polls []sample
	poll := func() sample {
		n := len(polls)
		c.Poll(func(value uint32, delta int64, discont bool) {
			polls = append(polls, sample{value, delta, discont})
		})
		f.sim.RunUntil(f.sim.Now() + 10*netsim.Millisecond)
		if len(polls) != n+1 {
			t.Fatal("poll echo never arrived")
		}
		return polls[n]
	}
	add := func(n uint32) {
		c.Add(n, nil)
		f.sim.RunUntil(f.sim.Now() + 10*netsim.Millisecond)
	}

	// Baseline, then a normal delta.
	if s := poll(); s.value != 0 || s.delta != 0 || s.discont {
		t.Fatalf("first poll = %+v, want {0 0 false}", s)
	}
	add(40)
	if s := poll(); s.value != 40 || s.delta != 40 || s.discont {
		t.Fatalf("steady poll = %+v, want {40 40 false}", s)
	}

	// Crash: the tally resets to zero and the epoch bumps.  Post-crash
	// increments accumulate from zero.
	f.sw.Reboot(netsim.Millisecond)
	f.sim.RunUntil(f.sim.Now() + 5*netsim.Millisecond)
	add(7)

	s := poll()
	if !s.discont {
		t.Fatalf("reboot not flagged: %+v", s)
	}
	if s.delta < 0 {
		t.Fatalf("poll reported a negative delta across the reboot: %+v", s)
	}
	if s.value != 7 || s.delta != 7 {
		t.Fatalf("re-based poll = %+v, want value 7, delta 7", s)
	}
	if c.Discontinuities() != 1 {
		t.Fatalf("Discontinuities = %d, want 1", c.Discontinuities())
	}

	// Back to steady state: the next poll is ordinary again.
	add(3)
	if s := poll(); s.value != 10 || s.delta != 3 || s.discont {
		t.Fatalf("post-recovery poll = %+v, want {10 3 false}", s)
	}
}

// TestPollFirstObservationIsData: a tally that was counted before the
// first Poll is data, not a baseline to hide — the first Poll reports
// it whole as its delta, without a discontinuity, as every later fold
// through agent.RegionPoller would.
func TestPollFirstObservationIsData(t *testing.T) {
	f := setup(t)
	c := NewCounter(f.probers[0], f.target.MAC, f.target.IP, f.sw.ID(), f.addr, Atomic)
	c.Add(25, nil)
	f.sim.RunUntil(f.sim.Now() + 10*netsim.Millisecond)

	polls := 0
	c.Poll(func(value uint32, delta int64, discont bool) {
		polls++
		if value != 25 || delta != 25 || discont {
			t.Errorf("first poll = {%d %d %v}, want {25 25 false}", value, delta, discont)
		}
	})
	f.sim.RunUntil(f.sim.Now() + 10*netsim.Millisecond)
	if polls != 1 || c.Discontinuities() != 0 {
		t.Fatalf("polls %d, Discontinuities %d; want 1, 0", polls, c.Discontinuities())
	}
}
