package faults_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestSwitchRebootThroughPlan schedules a crash-restart via the
// declarative plan and checks the full arc: traffic flows before, the
// switch is dark (and dropping) during the boot delay, the boot epoch
// increments, forwarding resumes afterwards, and the reboot + switch-up
// spans land in the trace stream.
func TestSwitchRebootThroughPlan(t *testing.T) {
	const (
		rebootAt  = 40 * netsim.Millisecond
		bootDelay = 10 * netsim.Millisecond
	)
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: rebootAt, Kind: faults.SwitchReboot, Target: "s0", BootDelay: bootDelay},
	}})

	if got := r.pump(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-reboot delivered %d/20", got)
	}
	// During the dark window every frame is eaten.
	if got := r.pump(42*netsim.Millisecond, 48*netsim.Millisecond); got != 0 {
		t.Fatalf("dark switch delivered %d packets", got)
	}
	if r.sws[0].Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", r.sws[0].Epoch())
	}
	if r.sws[0].RebootDrops() == 0 {
		t.Fatal("no drops counted during the dark window")
	}
	// The L2 wipe means the first post-boot frames flood and still
	// deliver; steady traffic resumes at full rate.
	if got := r.pump(60*netsim.Millisecond, 80*netsim.Millisecond); got != 20 {
		t.Fatalf("post-boot delivered %d/20", got)
	}
	if r.inj.Injected != 1 || r.inj.Recovered != 0 {
		t.Fatalf("counters: injected=%d recovered=%d", r.inj.Injected, r.inj.Recovered)
	}

	var sawReboot, sawUp bool
	for _, ev := range r.tracer.Events() {
		switch ev.Stage {
		case obs.StageSwitchReboot:
			sawReboot = true
			if ev.A != 1 || ev.B != uint64(bootDelay) {
				t.Fatalf("reboot span A=%d B=%d, want epoch 1 and delay %d", ev.A, ev.B, bootDelay)
			}
		case obs.StageSwitchUp:
			sawUp = true
			if ev.At != int64(rebootAt+bootDelay) {
				t.Fatalf("switch-up span at %d, want %d", ev.At, int64(rebootAt+bootDelay))
			}
		}
	}
	if !sawReboot || !sawUp {
		t.Fatalf("spans missing: reboot=%v up=%v", sawReboot, sawUp)
	}
}

// TestSwitchRebootValidation: a negative boot delay is rejected
// up-front, and an unknown switch target still fails like the other
// switch kinds.
func TestSwitchRebootValidation(t *testing.T) {
	r := newRig(t, faults.Plan{})
	if err := r.inj.Schedule(faults.Plan{Events: []faults.Event{
		{Kind: faults.SwitchReboot, Target: "s0", BootDelay: -netsim.Millisecond},
	}}); err == nil {
		t.Fatal("negative BootDelay accepted")
	}
	if err := r.inj.Schedule(faults.Plan{Events: []faults.Event{
		{Kind: faults.SwitchReboot, Target: "nope"},
	}}); err == nil {
		t.Fatal("unknown switch target accepted")
	}
}

// TestTPPDeliveryAcrossPlanReboot: TPP-carrying traffic flows in full
// before a plan-driven crash-restart and again after the dark window,
// with the rebooted switch executing every program that crosses it.
func TestTPPDeliveryAcrossPlanReboot(t *testing.T) {
	const (
		rebootAt  = 40 * netsim.Millisecond
		bootDelay = 10 * netsim.Millisecond
	)
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: rebootAt, Kind: faults.SwitchReboot, Target: "s0", BootDelay: bootDelay},
	}})
	r.tpp = true

	if got := r.pump(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-reboot delivered %d/20", got)
	}
	before := r.sws[0].TPPsExecuted()
	if before < 20 {
		t.Fatalf("s0 executed %d TPPs before the reboot, want at least 20", before)
	}

	// Past the dark window; the L2 wipe makes early frames flood but
	// they still reach dst.
	if got := r.pump(60*netsim.Millisecond, 80*netsim.Millisecond); got != 20 {
		t.Fatalf("post-boot delivered %d/20", got)
	}
	if ran := r.sws[0].TPPsExecuted() - before; ran < 20 {
		t.Fatalf("s0 executed %d TPPs after the reboot, want at least 20", ran)
	}
}
