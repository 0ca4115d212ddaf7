package faults_test

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topo"
)

// rig is a 2-switch line (H0 - S0 - S1 - H1) with the backbone link
// and both switches registered on an injector.
type rig struct {
	sim      *netsim.Sim
	net      *topo.Network
	src, dst *endhost.Host
	sws      []*asic.Switch
	inj      *faults.Injector
	tracer   *obs.Tracer
	// tpp makes pump instrument every packet with the microburst
	// telemetry program.
	tpp bool
}

func newRig(t *testing.T, plan faults.Plan) *rig {
	t.Helper()
	sim := netsim.New(1)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	backbone := topo.Mbps(100, 10*netsim.Microsecond)
	// The switches share the tracer so switch-emitted spans (reboot,
	// boot-complete) land in the same stream as the injector's.
	tracer := obs.NewTracer(1 << 16)
	n, src, dst, sws := topo.Line(sim, 2, edge, backbone, asic.Config{Trace: tracer})
	n.PrimeL2(5 * netsim.Millisecond)

	inj := faults.NewInjector(sim, tracer)
	// The backbone is S0 port 0 <-> S1 port 0 (switch-switch links are
	// wired before host links in topo.Line).
	inj.RegisterLink("backbone", sws[0].Port(0).Channel(), sws[1].Port(0).Channel())
	inj.RegisterSwitch("s0", sws[0])
	inj.RegisterSwitch("s1", sws[1])
	if err := inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return &rig{sim: sim, net: n, src: src, dst: dst, sws: sws, inj: inj, tracer: tracer}
}

// pump sends one 200-byte packet src->dst every millisecond for the
// given span and returns how many arrived.
func (r *rig) pump(from, to netsim.Time) (delivered uint64) {
	before := r.dst.Received
	for at := from; at < to; at += netsim.Millisecond {
		r.sim.At(at, func() {
			pkt := r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200)
			if r.tpp {
				microburst.Instrument(pkt, 4)
			}
			r.src.Send(pkt)
		})
	}
	r.sim.RunUntil(to + 10*netsim.Millisecond)
	return r.dst.Received - before
}

func TestLinkFlapStopsAndRestoresTraffic(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: faults.Flap(
		"backbone", 40*netsim.Millisecond, 30*netsim.Millisecond)})

	// pump runs the sim 10ms past each window, so windows are spaced to
	// stay ahead of the clock: [10,35) ends at 45, [46,65) ends at 75.
	if got := r.pump(10*netsim.Millisecond, 35*netsim.Millisecond); got != 25 {
		t.Fatalf("pre-fault delivered %d/25", got)
	}
	if got := r.pump(46*netsim.Millisecond, 65*netsim.Millisecond); got != 0 {
		t.Fatalf("down link delivered %d packets", got)
	}
	if got := r.pump(75*netsim.Millisecond, 100*netsim.Millisecond); got != 25 {
		t.Fatalf("post-recovery delivered %d/25", got)
	}
	if r.inj.Injected != 1 || r.inj.Recovered != 1 {
		t.Fatalf("counters: injected=%d recovered=%d", r.inj.Injected, r.inj.Recovered)
	}
}

func TestBlackholeSwallowsOnlyTargetedTraffic(t *testing.T) {
	var dstIP uint32
	// Build once to learn the dst IP, then rebuild with the plan.
	{
		sim := netsim.New(1)
		_, _, d, _ := topo.Line(sim, 2, topo.Mbps(100, netsim.Microsecond),
			topo.Mbps(100, netsim.Microsecond), asic.Config{})
		dstIP = d.IP
	}
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 40 * netsim.Millisecond, Kind: faults.Blackhole, Target: "s0", DstIP: dstIP},
		{At: 80 * netsim.Millisecond, Kind: faults.ClearBlackhole, Target: "s0", DstIP: dstIP},
	}})

	if got := r.pump(10*netsim.Millisecond, 30*netsim.Millisecond); got != 20 {
		t.Fatalf("pre-fault delivered %d/20", got)
	}
	// While the hole is in: forward traffic vanishes, reverse traffic
	// (dst -> src) is untouched.  Schedule both before running.
	beforeFwd, beforeRev := r.dst.Received, r.src.Received
	for at := 45 * netsim.Millisecond; at < 65*netsim.Millisecond; at += netsim.Millisecond {
		r.sim.At(at, func() {
			r.src.Send(r.src.NewPacket(r.dst.MAC, r.dst.IP, 5000, 5001, 200))
			r.dst.Send(r.dst.NewPacket(r.src.MAC, r.src.IP, 5001, 5000, 200))
		})
	}
	r.sim.RunUntil(75 * netsim.Millisecond)
	if got := r.dst.Received - beforeFwd; got != 0 {
		t.Fatalf("blackholed dst received %d packets", got)
	}
	if got := r.src.Received - beforeRev; got != 20 {
		t.Fatalf("reverse path delivered %d/20 during the hole", got)
	}
	if got := r.pump(85*netsim.Millisecond, 105*netsim.Millisecond); got != 20 {
		t.Fatalf("post-clear delivered %d/20", got)
	}
	if r.sws[0].TCAM().Size() != 0 {
		t.Fatal("ClearBlackhole left the drop rule installed")
	}
}

func TestTCPUToggleThroughPlan(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 20 * netsim.Millisecond, Kind: faults.TCPUOff, Target: "s1"},
		{At: 60 * netsim.Millisecond, Kind: faults.TCPUOn, Target: "s1"},
	}})
	prober := endhost.NewProber(r.src)
	probe := func(at netsim.Time) *core.TPP {
		var echoed *core.TPP
		r.sim.At(at, func() {
			// One PUSH of the switch id per hop, two hops of memory.
			tpp := core.NewTPP(core.AddrStack, []core.Instruction{
				{Op: core.OpPUSH, A: uint16(mem.SwitchBase + mem.SwitchID)},
			}, 2)
			prober.Probe(r.dst.MAC, r.dst.IP, tpp, func(e *core.TPP) { echoed = e })
		})
		r.sim.RunUntil(at + 15*netsim.Millisecond)
		if echoed == nil {
			t.Fatalf("probe at %v never echoed", at)
		}
		return echoed
	}
	if e := probe(10 * netsim.Millisecond); e.Ptr != 8 {
		t.Fatalf("healthy trace SP = %d, want 8", e.Ptr)
	}
	if e := probe(30 * netsim.Millisecond); e.Ptr != 4 {
		t.Fatalf("TCPU-off trace SP = %d, want 4 (one hop skipped)", e.Ptr)
	}
	if e := probe(70 * netsim.Millisecond); e.Ptr != 8 {
		t.Fatalf("recovered trace SP = %d, want 8", e.Ptr)
	}
}

// TestLossEventsReplayBySeed: the same plan and seed produce the
// identical delivery pattern; a different seed produces a different
// one (with overwhelming probability at these sample sizes).
func TestLossEventsReplayBySeed(t *testing.T) {
	run := func(seed int64) uint64 {
		r := newRig(t, faults.Plan{Seed: seed, Events: []faults.Event{
			{At: 10 * netsim.Millisecond, Kind: faults.LinkBurstyLoss, Target: "backbone",
				PGoodBad: 0.05, PBadGood: 0.2, LossGood: 0.01, LossBad: 0.9},
		}})
		return r.pump(10*netsim.Millisecond, 400*netsim.Millisecond)
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatalf("same seed diverged: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds identical: %d", a1)
	}
	if a1 == 0 || a1 == 390 {
		t.Fatalf("bursty loss had no effect: delivered %d/390", a1)
	}
}

func TestClearLossRestoresLossless(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 3, Events: []faults.Event{
		{At: 10 * netsim.Millisecond, Kind: faults.LinkLoss, Target: "backbone", P: 1},
		{At: 50 * netsim.Millisecond, Kind: faults.ClearLoss, Target: "backbone"},
	}})
	if got := r.pump(15*netsim.Millisecond, 45*netsim.Millisecond); got != 0 {
		t.Fatalf("blackout delivered %d", got)
	}
	if got := r.pump(56*netsim.Millisecond, 86*netsim.Millisecond); got != 30 {
		t.Fatalf("after ClearLoss delivered %d/30", got)
	}
}

func TestFaultSpansInStream(t *testing.T) {
	r := newRig(t, faults.Plan{Seed: 1, Events: faults.Flap(
		"backbone", 10*netsim.Millisecond, 10*netsim.Millisecond)})
	r.sim.RunUntil(50 * netsim.Millisecond)

	var injects, recovers int
	for _, ev := range r.tracer.Events() {
		switch ev.Stage {
		case obs.StageFaultInject:
			injects++
			if faults.Kind(ev.A) != faults.LinkDown {
				t.Errorf("inject span kind = %v", faults.Kind(ev.A))
			}
		case obs.StageFaultRecover:
			recovers++
		}
	}
	if injects != 1 || recovers != 1 {
		t.Fatalf("fault spans: inject=%d recover=%d, want 1/1", injects, recovers)
	}
	if len(r.inj.Log) != 2 {
		t.Fatalf("applied log has %d entries", len(r.inj.Log))
	}
}

func TestScheduleValidation(t *testing.T) {
	sim := netsim.New(1)
	inj := faults.NewInjector(sim, nil)
	ch := netsim.NewChannel(sim, 1000, 0, rxSink{}, 0)
	inj.RegisterLink("l", ch)

	bad := []faults.Plan{
		{Events: []faults.Event{{Kind: faults.LinkDown, Target: "nope"}}},
		{Events: []faults.Event{{Kind: faults.Blackhole, Target: "l"}}}, // link, not switch
		{Events: []faults.Event{{Kind: faults.LinkLoss, Target: "l", P: 1.5}}},
		{Events: []faults.Event{{Kind: faults.LinkBurstyLoss, Target: "l", PGoodBad: -0.1}}},
		{Events: []faults.Event{{Kind: faults.Kind(250), Target: "l"}}},
	}
	for i, p := range bad {
		if err := inj.Schedule(p); err == nil {
			t.Errorf("plan %d scheduled despite invalid event", i)
		}
	}
	if sim.Pending() != 0 {
		t.Fatal("invalid plans left events armed")
	}
}

type rxSink struct{}

func (rxSink) Receive(*core.Packet, int) {}
