package fabric_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// driveConverge starts a converge and drives the simulation until the
// done callback fires or the deadline passes.
func driveConverge(t *testing.T, h *harness, spec fabric.Spec, cfg fabric.ConvergeConfig, deadline netsim.Time) fabric.ConvergeResult {
	t.Helper()
	var res fabric.ConvergeResult
	done := false
	h.ctl.Converge(spec, cfg, func(r fabric.ConvergeResult) { res, done = r, true })
	for !done && h.sim.Now() < deadline {
		h.sim.RunUntil(h.sim.Now() + netsim.Millisecond)
	}
	if !done {
		t.Fatalf("converge did not finish by %v (pending %d events)", deadline, h.sim.Pending())
	}
	return res
}

func TestConvergeFirstAttempt(t *testing.T) {
	h := newHarness(1)
	res := driveConverge(t, h, testSpec(), fabric.ConvergeConfig{}, netsim.Second)
	if !res.Converged || res.Attempts != 1 || res.BudgetExhausted {
		t.Fatalf("clean fabric: %+v", res)
	}
	if res.OpsApplied != 10 || len(res.Pending) != 0 {
		t.Fatalf("clean fabric: %+v", res)
	}
	// Converging an already converged fabric applies nothing.
	res = driveConverge(t, h, testSpec(), fabric.ConvergeConfig{}, 2*netsim.Second)
	if !res.Converged || res.OpsApplied != 0 {
		t.Fatalf("fixpoint reconverge: %+v", res)
	}
}

// TestConvergeRebootRace is the acceptance scenario: a SwitchReboot
// fault lands inside the diff→apply window, the controller detects the
// epoch bump (no stale write touches the wiped switch), backs off, and
// rolls forward — the final verified live state equals the spec.
func TestConvergeRebootRace(t *testing.T) {
	h := newHarness(1)
	inj := faults.NewInjector(h.sim, nil)
	inj.RegisterSwitch("leaf0", h.leaf)
	if err := inj.Schedule(faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 2 * netsim.Millisecond, Kind: faults.SwitchReboot, Target: "leaf0", BootDelay: netsim.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}

	spec := testSpec()
	cfg := fabric.ConvergeConfig{
		// The 5ms diff→apply delay guarantees the 2ms reboot lands
		// mid-flight on the first attempt.
		ApplyDelay: 5 * netsim.Millisecond,
		Backoff:    4 * netsim.Millisecond,
		Budget:     6,
	}
	res := driveConverge(t, h, spec, cfg, netsim.Second)
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("reboot race should cost at least one retry: %+v", res)
	}
	raced := false
	for _, r := range res.Rounds {
		for _, e := range r.Errors {
			if e.Device == "leaf0" && (e.Kind == fabric.ErrEpochRaced || e.Kind == fabric.ErrDeviceDark) {
				raced = true
			}
		}
	}
	if !raced {
		t.Fatalf("no round observed the epoch race: %+v", res.Rounds)
	}

	// Field-for-field: the live state equals the spec.
	if errs := h.ctl.Verify(spec); len(errs) > 0 {
		t.Fatalf("post-converge verify: %v", errs)
	}
	st, derr := h.ctl.ReadState("leaf0")
	if derr != nil {
		t.Fatal(derr)
	}
	if len(st.Tenants) != 2 || len(st.Services) != 2 || len(st.Routes) != 3 || len(st.Prefixes) != 2 {
		t.Fatalf("post-converge leaf0 state: %+v", st)
	}
	if st.Epoch != 1 {
		t.Fatalf("leaf0 epoch = %d, want 1 (one reboot)", st.Epoch)
	}
	// The seed words landed on the post-boot switch.
	if got := h.leaf.SRAM(mem.SRAMIndex(st.Services[0].Region.Base)); got != 1250000 {
		t.Fatalf("seed word 0 = %d after re-apply", got)
	}
}

// TestConvergeBudgetExhausted is the graceful-degradation acceptance
// case: a spec that can never fit keeps failing retryably; the loop
// burns its budget and reports partial convergence as typed per-device
// errors — no panic, no silent success.
func TestConvergeBudgetExhausted(t *testing.T) {
	h := newHarness(1)
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "spine0", Routes: []fabric.Route{{DstIP: 1, Priority: 1, OutPort: 1}}},
		{Device: "leaf0", Services: []fabric.Service{
			{Name: "a", Words: mem.SRAMWords}, // the whole bank...
			{Name: "b", Words: 1},             // ...plus one word
		}},
	}}
	cfg := fabric.ConvergeConfig{Budget: 3, Backoff: netsim.Millisecond}
	res := driveConverge(t, h, spec, cfg, netsim.Second)

	if res.Converged {
		t.Fatalf("impossible spec converged: %+v", res)
	}
	if !res.BudgetExhausted || res.Attempts != 3 {
		t.Fatalf("want 3 exhausted attempts: %+v", res)
	}
	if len(res.Pending) != 1 {
		t.Fatalf("want one pending device error, got %v", res.Pending)
	}
	pe := res.Pending[0]
	if pe.Device != "leaf0" || pe.Kind != fabric.ErrWriteFailed || !pe.RolledBack {
		t.Fatalf("pending error: %+v", pe)
	}

	// Partial convergence: the feasible device converged and stayed.
	st, derr := h.ctl.ReadState("spine0")
	if derr != nil || len(st.Routes) != 1 {
		t.Fatalf("spine0 should have converged: %v %+v", derr, st)
	}
	// The infeasible device rolled back to empty every round.
	lst, _ := h.ctl.ReadState("leaf0")
	if len(lst.Services) != 0 {
		t.Fatalf("leaf0 should have rolled back: %+v", lst.Services)
	}
}

// TestConvergeBackoffClock pins the retry cadence: converge doubles its
// own Backoff before each further attempt, so attempts land at t0, +b,
// +2b, +4b...
func TestConvergeBackoffClock(t *testing.T) {
	h := newHarness(1)
	spec := fabric.Spec{Devices: []fabric.DeviceSpec{
		{Device: "leaf0", Services: []fabric.Service{
			{Name: "a", Words: mem.SRAMWords},
			{Name: "b", Words: 1},
		}},
	}}
	cfg := fabric.ConvergeConfig{Budget: 4, Backoff: 2 * netsim.Millisecond}
	res := driveConverge(t, h, spec, cfg, netsim.Second)
	if len(res.Rounds) != 4 {
		t.Fatalf("want 4 rounds, got %d", len(res.Rounds))
	}
	want := []netsim.Time{0, 2 * netsim.Millisecond, 6 * netsim.Millisecond, 14 * netsim.Millisecond}
	for i, r := range res.Rounds {
		if r.At != want[i] {
			t.Fatalf("round %d at %v, want %v", i, r.At, want[i])
		}
	}
}
