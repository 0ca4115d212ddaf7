// Package chaos composes every fault the simulator can inject — switch
// crash-restarts, bursty (Gilbert–Elliott) frame loss, silent TCAM
// blackholes and TCPU admission throttling — into one deterministic
// leaf-spine soak, and checks that the end-host mechanisms built on
// TPPs degrade and recover the way the paper argues they must: RCP*
// re-seeds wiped rate registers and re-converges, accounting flags
// counter discontinuities instead of reporting garbage deltas, the
// probe machinery retries through loss, and dataplane telemetry stays
// exactly reconciled with switch counters throughout.
//
// The soak runs as a fabric scenario: dst-routing arrives as a
// declarative fabric.Spec the controller converges (and verifies after
// the crashes), the fault plan and workloads are scenario phases, and
// the scenario result rides in the soak Result so determinism covers
// the control plane too.
//
// Everything is seeded: the same Config produces the identical Result,
// which the soak test asserts by running every seed twice.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/accounting"
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/fabric/scenario"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rcp"
	"repro/internal/topo"
)

// Config parameterizes the soak.  Zero values select the canonical
// scenario via Default.
type Config struct {
	Seed     int64
	Duration netsim.Time

	// RebootAt schedules crash-restarts of spine 0 (the RCP bottleneck
	// and the accounting counter's home switch).
	RebootAt  []netsim.Time
	BootDelay netsim.Time

	// Bursty loss window on the leaf0-spine1 fabric link.
	LossFrom, LossTo netsim.Time

	// Blackhole window on spine 1 for the throttle stream's target.
	HoleFrom, HoleTo netsim.Time

	// TPPRate/TPPBurst arm the admission gate on leaf 2 only, so the
	// probe streams transiting it get throttled while the RCP path
	// stays clean.
	TPPRate  float64
	TPPBurst int
}

// Default is the canonical chaos scenario: ~7 simulated seconds over a
// 3x2 leaf-spine fabric with two spine-0 crashes, a five-second bursty
// loss window, a half-second blackhole and a throttled edge switch.
func Default(seed int64) Config {
	return Config{
		Seed:      seed,
		Duration:  7 * netsim.Second,
		RebootAt:  []netsim.Time{3 * netsim.Second, 5 * netsim.Second},
		BootDelay: 50 * netsim.Millisecond,
		LossFrom:  1 * netsim.Second, LossTo: 6 * netsim.Second,
		HoleFrom: 2 * netsim.Second, HoleTo: 2500 * netsim.Millisecond,
		TPPRate: 100, TPPBurst: 4,
	}
}

// Result is the soak's observable outcome.  It contains only plain
// values so two runs with the same Config can be compared wholesale to
// prove determinism.
type Result struct {
	// Scenario is the control-plane outcome: the provision converge
	// that programmed the dst-routing spec, the fault plan, and the
	// end-of-soak verify that the routes survived the crashes.
	Scenario scenario.Result

	// Conservation audit over every queue of every switch:
	// EnqPkts == DeqPkts + FlushedPkts + Len() must hold (tail drops
	// never enter the queue), so Leaked (the sum of the differences)
	// must be zero — a reboot neither duplicates nor loses track of a
	// packet.
	Leaked int64

	// Reboot bookkeeping on spine 0.
	Reboots          uint64
	RebootDrops      uint64
	RebootSpans      int // StageSwitchReboot spans
	SwitchUpSpans    int // StageSwitchUp spans
	RebootDropSpans  int // StageRebootDrop spans from spine 0
	RebootsMetric    int64
	RebootDropMetric int64

	// RCP* recovery.
	EpochBumps  uint64
	Reinits     uint64
	RCPTimeouts uint64
	// RateSamples is LastRate sampled every 100ms (bytes/sec).
	RateSamples []float64
	// RateAfterReboot[i] is LastRate at RebootAt[i] + the recovery
	// window (30 control intervals).
	RateAfterReboot []float64

	// Accounting through the crashes.
	Polls           int
	NegativeDeltas  int
	Discontinuities uint64
	FinalTally      uint32

	// Throttling on leaf 2.
	Throttled       uint64 // switch counter
	ThrottleSpans   int    // StageThrottle spans from leaf 2
	ThrottleMetric  int64
	ThrottledEchoes int // stream echoes carrying FlagThrottled
	CleanEchoes     int // stream echoes executed end-to-end
	StreamTimeouts  uint64

	// Tracer health: reconciliation is only sound if nothing wrapped.
	SpansDropped uint64
}

// chaosScenario renders the soak's phase graph.  The fault events vary
// with Config (the reboot list is variable-length), so the document is
// generated rather than static.
func chaosScenario(cfg Config, holeIP uint32) string {
	var sb strings.Builder
	sb.WriteString("name: chaos-soak\nphases:\n")
	sb.WriteString("  - name: provision\n    kind: provision\n    budget: 5\n    backoff: 10ms\n")
	sb.WriteString("  - name: storm\n    kind: faults\n    needs: [provision]\n    events:\n")
	fmt.Fprintf(&sb, "      - at: %dns\n        kind: %v\n        target: leaf0-spine1\n"+
		"        pgoodbad: 0.01\n        pbadgood: 0.1\n        lossgood: 0.005\n        lossbad: 0.5\n",
		cfg.LossFrom, faults.LinkBurstyLoss)
	fmt.Fprintf(&sb, "      - at: %dns\n        kind: %v\n        target: leaf0-spine1\n",
		cfg.LossTo, faults.ClearLoss)
	fmt.Fprintf(&sb, "      - at: %dns\n        kind: %v\n        target: spine1\n        dstip: %s\n",
		cfg.HoleFrom, faults.Blackhole, core.IPv4String(holeIP))
	fmt.Fprintf(&sb, "      - at: %dns\n        kind: %v\n        target: spine1\n        dstip: %s\n",
		cfg.HoleTo, faults.ClearBlackhole, core.IPv4String(holeIP))
	for _, at := range cfg.RebootAt {
		fmt.Fprintf(&sb, "      - at: %dns\n        kind: %v\n        target: spine0\n        bootdelay: %dns\n",
			at, faults.SwitchReboot, cfg.BootDelay)
	}
	sb.WriteString("  - name: work\n    kind: workloads\n    needs: [provision]\n" +
		"    hooks: [rcp, accounting, stream, sampling]\n")
	fmt.Fprintf(&sb, "  - name: soak\n    kind: run\n    needs: [work, storm]\n    until: %dns\n",
		cfg.Duration)
	sb.WriteString("  - name: check\n    kind: asserts\n    needs: [soak]\n    hooks: [routes-intact]\n")
	return sb.String()
}

// Run executes the scenario.
func Run(cfg Config) Result {
	if cfg.Duration <= 0 {
		cfg = Default(cfg.Seed)
	}
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// 3 leaves x 2 spines, built by hand so only the two switches whose
	// telemetry the soak reconciles (spine 0: reboots; leaf 2: the
	// admission gate) carry the tracer.  Construction order mirrors
	// topo.LeafSpine: spines first, then leaves, so leaf i's ports
	// 0..S-1 climb to spines 0..S-1 and spine s's ports 0..L-1 descend
	// to leaves 0..L-1.
	const (
		leavesN = 3
		spinesN = 2
		hostsN  = 2 // hosts per leaf; host j of any leaf rides spine j
	)
	n := topo.NewNetwork(sim)
	spines := make([]*asic.Switch, spinesN)
	spines[0] = n.AddSwitch(asic.Config{Ports: 8, Metrics: reg, Trace: tracer})
	spines[1] = n.AddSwitch(asic.Config{Ports: 8, Metrics: reg})
	leaves := make([]*asic.Switch, leavesN)
	leaves[0] = n.AddSwitch(asic.Config{Ports: 8, Metrics: reg})
	leaves[1] = n.AddSwitch(asic.Config{Ports: 8, Metrics: reg})
	leaves[2] = n.AddSwitch(asic.Config{Ports: 8, Metrics: reg, Trace: tracer,
		TPPRate: cfg.TPPRate, TPPBurst: cfg.TPPBurst})
	// Channels stay untraced: the soak reconciles switch spans only.
	n.SetTrace(nil)

	edge := topo.Mbps(20, 10*netsim.Microsecond)
	backbone := topo.Mbps(10, 10*netsim.Microsecond)
	for _, leaf := range leaves {
		for _, sp := range spines {
			n.LinkSwitches(leaf, sp, backbone)
		}
	}
	hosts := make([][]*endhost.Host, leavesN)
	for li := range hosts {
		hosts[li] = make([]*endhost.Host, hostsN)
		for j := range hosts[li] {
			hosts[li][j] = n.AddHost()
			n.LinkHost(hosts[li][j], leaves[li], edge)
		}
	}

	// Deterministic dst-routing (same scheme as the ndb hunt): host j
	// of any leaf is reached via spine j, so the fabric never depends
	// on learned L2 state a reboot would wipe.  The routes are a
	// declarative spec the controller converges, not hand inserts.
	leafRoutes := make([][]fabric.Route, leavesN)
	spineRoutes := make([][]fabric.Route, spinesN)
	for li := range hosts {
		for hj, h := range hosts[li] {
			leafRoutes[li] = append(leafRoutes[li], fabric.Route{
				DstIP: h.IP, Priority: 100, OutPort: n.AttachmentOf(h).Port})
			for other := range leaves {
				if other != li {
					leafRoutes[other] = append(leafRoutes[other], fabric.Route{
						DstIP: h.IP, Priority: 10, OutPort: hj})
				}
			}
			for si := range spines {
				spineRoutes[si] = append(spineRoutes[si], fabric.Route{
					DstIP: h.IP, Priority: 10, OutPort: li})
			}
		}
	}
	var spec fabric.Spec
	fab := fabric.New(sim)
	for li, sw := range leaves {
		name := fmt.Sprintf("leaf%d", li)
		fab.Register(name, sw)
		spec.Devices = append(spec.Devices, fabric.DeviceSpec{Device: name, Routes: leafRoutes[li]})
	}
	for si, sw := range spines {
		name := fmt.Sprintf("spine%d", si)
		fab.Register(name, sw)
		spec.Devices = append(spec.Devices, fabric.DeviceSpec{Device: name, Routes: spineRoutes[si]})
	}
	rcp.InitRateRegisters(append(append([]*asic.Switch{}, leaves...), spines...)...)

	// Fault plan: two spine-0 crashes, a bursty-loss window on
	// leaf0-spine1, and a silent blackhole for the throttle stream's
	// destination on spine 1.  The events live in the scenario; the
	// injector just needs the target registry.
	inj := faults.NewInjector(sim, tracer)
	inj.RegisterSwitch("spine0", spines[0])
	inj.RegisterSwitch("spine1", spines[1])
	inj.RegisterLink("leaf0-spine1",
		leaves[0].Port(1).Channel(), spines[1].Port(0).Channel())
	holeIP := hosts[2][1].IP

	// Workload 1: one RCP* flow hosts[0][0] -> hosts[1][0], bottlenecked
	// on the fabric and riding spine 0 — squarely in the crash zone.
	params := rcp.DefaultParams()
	ctlProber := endhost.NewProber(hosts[0][0])
	ctl := rcp.NewStarController(sim, hosts[0][0], ctlProber,
		hosts[1][0].MAC, hosts[1][0].IP, params)

	// Workload 2: a shared accounting tally in spine 0's SRAM.  One
	// writer increments it; a poller tracks deltas and must flag (not
	// corrupt) the discontinuity when a crash zeroes the tally.
	tallyAddr := mem.SRAMBase + 16
	writerProber := endhost.NewProber(hosts[0][1])
	writerProber.SetDefaults(endhost.ProbeConfig{
		Timeout: 100 * netsim.Millisecond, Retries: 2, Backoff: 2})
	writer := accounting.NewCounter(writerProber, hosts[2][0].MAC, hosts[2][0].IP,
		spines[0].ID(), tallyAddr, accounting.Atomic)
	pollProber := endhost.NewProber(hosts[1][1])
	pollProber.SetDefaults(endhost.ProbeConfig{
		Timeout: 100 * netsim.Millisecond, Retries: 2, Backoff: 2})
	poller := accounting.NewCounter(pollProber, hosts[2][0].MAC, hosts[2][0].IP,
		spines[0].ID(), tallyAddr, accounting.Atomic)

	// Workload 3: a collect-probe stream hosts[0][1] -> hosts[2][1]
	// that transits the bursty link, the blackholed destination AND the
	// throttled leaf — the compose-everything stream.
	streamProber := endhost.NewProber(hosts[0][1])
	streamCfg := endhost.ProbeConfig{
		Timeout: 50 * netsim.Millisecond, Retries: 1, Backoff: 2}
	streamProg := func() *core.TPP {
		tpp, err := endhost.CollectProgram(
			[]mem.Addr{mem.SwitchBase + mem.SwitchID, mem.SwitchBase + mem.SwitchEpoch},
			4, 5)
		if err != nil {
			panic(err)
		}
		return tpp
	}

	var res Result
	var lastValue uint32
	res.RateAfterReboot = make([]float64, len(cfg.RebootAt))

	env := &scenario.Env{
		Sim:        sim,
		Controller: fab,
		Injector:   inj,
		Spec:       spec,
		Seed:       cfg.Seed,
		Workloads: map[string]scenario.Hook{
			"rcp": func(*scenario.Env) error {
				ctl.Start()
				return nil
			},
			"accounting": func(*scenario.Env) error {
				sim.Every(20*netsim.Millisecond, 25*netsim.Millisecond, func() {
					writer.Add(1, nil)
				})
				sim.Every(60*netsim.Millisecond, 100*netsim.Millisecond, func() {
					poller.Poll(func(value uint32, delta int64, discont bool) {
						res.Polls++
						if delta < 0 {
							res.NegativeDeltas++
						}
						lastValue = value
					})
				})
				return nil
			},
			"stream": func(*scenario.Env) error {
				sim.Every(10*netsim.Millisecond, 5*netsim.Millisecond, func() {
					streamProber.ProbeCfg(hosts[2][1].MAC, hosts[2][1].IP, streamProg(), streamCfg,
						func(e *core.TPP) {
							if e.Flags&core.FlagThrottled != 0 {
								res.ThrottledEchoes++
							} else {
								res.CleanEchoes++
							}
						}, nil)
				})
				return nil
			},
			// Sampling: LastRate every 100ms, plus one checkpoint 30
			// control intervals after each reboot for the
			// bounded-recovery assertion.
			"sampling": func(*scenario.Env) error {
				sim.Every(100*netsim.Millisecond, 100*netsim.Millisecond, func() {
					res.RateSamples = append(res.RateSamples, ctl.LastRate)
				})
				for i, at := range cfg.RebootAt {
					i := i
					sim.At(at+30*params.T, func() { res.RateAfterReboot[i] = ctl.LastRate })
				}
				return nil
			},
		},
		Asserts: map[string]scenario.Hook{
			// TCAM state survives a crash-restart; after two of them the
			// live fabric must still verify field-for-field against the
			// routing spec.
			"routes-intact": func(e *scenario.Env) error {
				if errs := e.Controller.Verify(e.Spec); len(errs) > 0 {
					return fmt.Errorf("%d devices off spec: %v", len(errs), errs)
				}
				return nil
			},
		},
	}
	sc, err := scenario.Parse(chaosScenario(cfg, holeIP), nil)
	if err != nil {
		panic(fmt.Sprintf("chaos: bad scenario: %v", err))
	}
	res.Scenario = scenario.Run(env, sc)
	ctl.Stop()

	// Audit.
	for _, sw := range append(append([]*asic.Switch{}, leaves...), spines...) {
		for p := 0; p < sw.Ports(); p++ {
			port := sw.Port(p)
			for q := 0; q < port.Queues(); q++ {
				qu := port.Queue(q)
				res.Leaked += int64(qu.EnqPkts) -
					int64(qu.DeqPkts+qu.FlushedPkts+uint64(qu.Len()))
			}
		}
	}
	res.Reboots = spines[0].Reboots()
	res.RebootDrops = spines[0].RebootDrops()
	res.EpochBumps = ctl.EpochBumps
	res.Reinits = ctl.Reinits
	res.RCPTimeouts = ctl.Timeouts
	res.Discontinuities = poller.Discontinuities()
	res.FinalTally = lastValue
	res.Throttled = leaves[2].TPPsThrottled()
	res.StreamTimeouts = streamProber.TimedOut
	res.SpansDropped = tracer.Dropped()

	for _, ev := range tracer.Events() {
		switch {
		case ev.Stage == obs.StageSwitchReboot && ev.Node == spines[0].ID():
			res.RebootSpans++
		case ev.Stage == obs.StageSwitchUp && ev.Node == spines[0].ID():
			res.SwitchUpSpans++
		case ev.Stage == obs.StageRebootDrop && ev.Node == spines[0].ID():
			res.RebootDropSpans++
		case ev.Stage == obs.StageThrottle && ev.Node == leaves[2].ID():
			res.ThrottleSpans++
		}
	}
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/reboots", spines[0].ID())); ok {
		res.RebootsMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/reboot_drops", spines[0].ID())); ok {
		res.RebootDropMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/tpps_throttled", leaves[2].ID())); ok {
		res.ThrottleMetric = m.Value
	}
	return res
}
