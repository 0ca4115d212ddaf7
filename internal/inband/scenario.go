package inband

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
	"repro/internal/topo"
	"repro/internal/verify"
)

// histTenant is the tenant the RTT-histogram workload runs as: its
// writer and collector NICs seal this identity and verify against the
// tenant's grant, so every TPP the workload emits is provably
// admissible before it enters the fabric.
const histTenant guard.TenantID = 7

// HistConfig parameterizes the RTT-histogram scenario.  Zero values
// select the canonical run via DefaultHist.
type HistConfig struct {
	Seed     int64
	Duration netsim.Time

	// RTT sampling: one probe every SampleEvery from SampleFrom until
	// SampleUntil, leaving the tail of the run for the writer to drain
	// and the collector to observe the settled window.
	SampleFrom, SampleEvery, SampleUntil netsim.Time

	// SweepEvery paces the collector (first sweep after one period).
	SweepEvery netsim.Time

	// RebootAt crash-restarts the histogram's home switch; zero
	// disables the crash.
	RebootAt, BootDelay netsim.Time

	// Bursty loss window on the writer-side fabric link, exercising
	// probe retransmission and CSTORE duplicate detection.
	LossFrom, LossTo netsim.Time

	// Probe bounds every probe attempt in the scenario.
	Probe endhost.ProbeConfig
}

// DefaultHist is the canonical scenario: 2 simulated seconds over a
// two-leaf, one-spine fabric; RTT sampled every 5ms for 1.2s with
// bursty cross traffic varying queueing delay; a 200ms bursty-loss
// window on the writer's fabric link; one spine crash-restart at 600ms.
func DefaultHist(seed int64) HistConfig {
	return HistConfig{
		Seed:        seed,
		Duration:    2 * netsim.Second,
		SampleFrom:  20 * netsim.Millisecond,
		SampleEvery: 5 * netsim.Millisecond,
		SampleUntil: 1200 * netsim.Millisecond,
		SweepEvery:  100 * netsim.Millisecond,
		RebootAt:    600 * netsim.Millisecond,
		BootDelay:   10 * netsim.Millisecond,
		LossFrom:    300 * netsim.Millisecond,
		LossTo:      500 * netsim.Millisecond,
		Probe: endhost.ProbeConfig{
			Timeout: 25 * netsim.Millisecond, Retries: 3, Backoff: 2},
	}
}

// HistResult is the scenario's observable outcome: plain values only,
// so two runs with the same config compare wholesale for determinism.
// The per-bucket arrays share obs bucket indexing (bucket i counts
// samples in [obs.BucketLow(i), obs.BucketHigh(i)]).
type HistResult struct {
	// Ground truth (host-measured RTT samples) vs the dataplane.
	Samples    uint64
	Truth      [obs.NumBuckets]uint64 // host-side histogram
	FinalSRAM  [obs.NumBuckets]uint64 // switch window read directly at the end
	Current    [obs.NumBuckets]uint64 // collector's current-epoch view
	Cumulative [obs.NumBuckets]uint64 // collector's across-wipes accumulation
	// CapturedAtWipe is the window read just before the crash wiped it:
	// the commits whose SRAM evidence the reboot destroyed.
	CapturedAtWipe [obs.NumBuckets]uint64

	TruthTotal, CurrentTotal, CumulativeTotal, CapturedTotal uint64

	// CSTORE reconciliation: switch counter == metric == span count,
	// and CurrentTotal + CapturedTotal == SwitchCommits.
	SwitchCommits uint64
	CommitMetric  int64
	CommitSpans   int

	// Sweep reconciliation: collector count == metric == span count,
	// and the folded metric equals the cumulative total.
	Sweeps           uint64
	SweepsMetric     int64
	SweepSpans       int
	FoldedMetric     int64
	SweepFolded      []uint64 // per-sweep folded counts, in order
	Discontinuities  uint64
	IncompleteChunks uint64

	// Writer protocol counters.
	Applied, Duplicates, Adopted, Inconclusive uint64
	Rebases, WriterFailures                    uint64
	AppliedMetric                              int64
	Retransmits                                uint64
	Drained                                    bool
	Pending                                    uint64

	// Environment health: the guard denied nothing (the workload is
	// verified against its own grant), the NICs rejected nothing, the
	// tracer wrapped nothing.
	Reboots      uint64
	Denied       uint64
	NICRejected  uint64
	SpansDropped uint64
}

// RunHist executes the RTT-histogram scenario: end-host TPPs
// CSTORE-bucket measured RTTs into the spine's SRAM, a collector
// sweeps the window, and one crash-restart in the middle proves the
// accounting is exact across the wipe.
func RunHist(cfg HistConfig) HistResult {
	if cfg.Duration <= 0 {
		cfg = DefaultHist(cfg.Seed)
	}
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// Two leaves, one spine; the spine is the histogram's home switch
	// and the only traced one, so span reconciliation is exact.
	n := topo.NewNetwork(sim)
	spine := n.AddSwitch(asic.Config{Ports: 8, Metrics: reg, Trace: tracer, Guard: true})
	leaves := []*asic.Switch{
		n.AddSwitch(asic.Config{Ports: 8, Metrics: reg}),
		n.AddSwitch(asic.Config{Ports: 8, Metrics: reg}),
	}
	n.SetTrace(nil) // switch spans only; channels stay untraced

	fabric := topo.Mbps(10, 10*netsim.Microsecond)
	edge := topo.Mbps(20, 10*netsim.Microsecond)
	// Leaf i's port 0 climbs to the spine; spine port i descends to
	// leaf i.
	for _, leaf := range leaves {
		n.LinkSwitches(leaf, spine, fabric)
	}
	addHost := func(leaf int) *endhost.Host {
		h := n.AddHost()
		n.LinkHost(h, leaves[leaf], edge)
		return h
	}
	writerHost := addHost(0) // measures RTTs, drives the window
	collHost := addHost(0)   // sweeps the window
	bgHost := addHost(0)     // bursty cross traffic varying queue delay
	targetHost := addHost(1) // probes transit the spine to reach it
	sinkHost := addHost(1)   // cross-traffic sink

	// Deterministic dst-routing, so forwarding never depends on learned
	// L2 state a crash would wipe.
	for li, leaf := range leaves {
		_ = leaf
		for _, h := range n.Hosts {
			at := n.AttachmentOf(h)
			v, m := tcam.DstIPRule(h.IP)
			if at.Switch == leaves[li] {
				leaves[li].TCAM().Insert(100, v, m, tcam.Action{OutPort: at.Port})
			} else {
				leaves[li].TCAM().Insert(10, v, m, tcam.Action{OutPort: 0})
			}
		}
	}
	for li, leaf := range leaves {
		for _, h := range n.Hosts {
			if n.AttachmentOf(h).Switch == leaf {
				v, m := tcam.DstIPRule(h.IP)
				spine.TCAM().Insert(10, v, m, tcam.Action{OutPort: li})
			}
		}
	}

	// The workload's tenant grant on the home switch; grants are
	// config and survive the crash, the partition's contents do not.
	grant, err := spine.GrantTenant(histTenant, guard.DefaultACL(), 2*obs.NumBuckets, 1, 8)
	if err != nil {
		panic(fmt.Sprintf("inband: GrantTenant: %v", err))
	}
	// The window is tenant-relative bucket 0..NumBuckets-1: the guard
	// relocates SRAMBase+i into the partition.
	spec := HistSpec{SwitchID: spine.ID(), Base: mem.SRAMBase, Buckets: obs.NumBuckets}
	seal := func(h *endhost.Host) {
		h.NIC.SetTenant(uint8(histTenant))
		h.NIC.SetVerifier(&verify.Config{Grant: &grant}, nil)
	}
	seal(writerHost)
	seal(collHost)

	writerProber := endhost.NewProber(writerHost)
	writerProber.SetDefaults(cfg.Probe)
	writer := NewHistWriter(WriterConfig{
		Prober: writerProber, DstMAC: targetHost.MAC, DstIP: targetHost.IP,
		Spec: spec, Probe: cfg.Probe, Metrics: reg,
	})

	collProber := endhost.NewProber(collHost)
	collProber.SetDefaults(cfg.Probe)
	coll := NewCollector(CollectorConfig{
		Prober: collProber, DstMAC: targetHost.MAC, DstIP: targetHost.IP,
		Spec: spec, Metrics: reg, Tracer: tracer,
		Now: func() int64 { return int64(sim.Now()) },
	})
	sim.Every(cfg.SweepEvery, cfg.SweepEvery, func() { coll.Sweep() })

	// RTT sampling: a 1-instruction probe measures the round trip on
	// the host clock; the sample goes to both the host-side truth
	// histogram and the dataplane writer.
	truth := obs.NewHistogram()
	measure := func() *core.TPP {
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		}, 1)
		tpp.SetWord(0, 0)
		return tpp
	}
	sim.Every(cfg.SampleFrom, cfg.SampleEvery, func() {
		if sim.Now() > cfg.SampleUntil {
			return
		}
		t0 := sim.Now()
		writerProber.ProbeCfg(targetHost.MAC, targetHost.IP, measure(), cfg.Probe,
			func(*core.TPP) {
				rtt := uint64(sim.Now() - t0)
				truth.Observe(rtt)
				writer.Observe(rtt)
			}, nil)
	})

	// Bursty cross traffic through the spine, so sampled RTTs spread
	// across several power-of-two buckets.
	tick := 0
	sim.Every(20*netsim.Millisecond, 10*netsim.Millisecond, func() {
		if sim.Now() > cfg.SampleUntil {
			return
		}
		tick++
		for i := 0; i < (tick*7)%13; i++ {
			bgHost.Send(bgHost.NewPacket(sinkHost.MAC, sinkHost.IP, 9000, 9001, 400))
		}
	})

	// Fault plan: a bursty-loss window on the writer's fabric link and
	// one spine crash.
	inj := faults.NewInjector(sim, tracer)
	inj.RegisterSwitch("spine", spine)
	inj.RegisterLink("leaf0-spine",
		leaves[0].Port(0).Channel(), spine.Port(0).Channel())
	var events []faults.Event
	if cfg.LossTo > cfg.LossFrom {
		events = append(events,
			faults.Event{At: cfg.LossFrom, Kind: faults.LinkBurstyLoss, Target: "leaf0-spine",
				PGoodBad: 0.01, PBadGood: 0.1, LossGood: 0.005, LossBad: 0.5},
			faults.Event{At: cfg.LossTo, Kind: faults.ClearLoss, Target: "leaf0-spine"})
	}
	if cfg.RebootAt > 0 {
		events = append(events, faults.Event{At: cfg.RebootAt, Kind: faults.SwitchReboot,
			Target: "spine", BootDelay: cfg.BootDelay})
	}
	if len(events) > 0 {
		if err := inj.Schedule(faults.Plan{Seed: cfg.Seed, Events: events}); err != nil {
			panic(fmt.Sprintf("inband: bad fault plan: %v", err))
		}
	}

	var res HistResult
	physBase := grant.Partition.Base
	readWindow := func(dst *[obs.NumBuckets]uint64) {
		for i := 0; i < obs.NumBuckets; i++ {
			dst[i] = uint64(spine.SRAM(mem.SRAMIndex(physBase + mem.Addr(i))))
		}
	}
	if cfg.RebootAt > 0 {
		// Capture W(τ⁻), the window the instant before the crash: the
		// injector's reboot event was scheduled at setup, so at
		// RebootAt it sorts before every packet event and no commit can
		// slip between this capture and the wipe.
		sim.RunUntil(cfg.RebootAt - 1)
		readWindow(&res.CapturedAtWipe)
	}
	sim.RunUntil(cfg.Duration)

	// Harvest.
	readWindow(&res.FinalSRAM)
	res.Samples = writer.Samples
	for i := 0; i < obs.NumBuckets; i++ {
		res.Truth[i] = truth.Bucket(i)
		res.Current[i] = uint64(coll.CurrentBucket(i))
		res.Cumulative[i] = coll.CumulativeBucket(i)
		res.TruthTotal += res.Truth[i]
		res.CurrentTotal += res.Current[i]
		res.CumulativeTotal += res.Cumulative[i]
		res.CapturedTotal += res.CapturedAtWipe[i]
	}
	res.SwitchCommits = spine.CStoreCommits()
	res.Sweeps = coll.Sweeps()
	for _, p := range coll.Series {
		res.SweepFolded = append(res.SweepFolded, p.Folded)
	}
	res.Discontinuities = coll.Discontinuities()
	res.IncompleteChunks = coll.Incomplete
	res.Applied = writer.Applied
	res.Duplicates = writer.Duplicates
	res.Adopted = writer.Adopted
	res.Inconclusive = writer.Inconclusive
	res.Rebases = writer.Rebases
	res.WriterFailures = writer.Failures
	res.Retransmits = writerProber.Retransmits + collProber.Retransmits
	res.Drained = writer.Drained()
	res.Pending = writer.PendingSamples()
	res.Reboots = spine.Reboots()
	res.Denied = spine.TPPsDenied()
	res.NICRejected = writerHost.NIC.Rejected + collHost.NIC.Rejected
	res.SpansDropped = tracer.Dropped()

	for _, ev := range tracer.Events() {
		switch {
		case ev.Stage == obs.StageCStore && ev.Node == spine.ID():
			res.CommitSpans++
		case ev.Stage == obs.StageSweep && ev.Node == spine.ID():
			res.SweepSpans++
		}
	}
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/cstore_commits", spine.ID())); ok {
		res.CommitMetric = m.Value
	}
	if m, ok := snap.Get("inband/collector/sweeps"); ok {
		res.SweepsMetric = m.Value
	}
	if m, ok := snap.Get("inband/collector/folded"); ok {
		res.FoldedMetric = m.Value
	}
	if m, ok := snap.Get("inband/writer/applied"); ok {
		res.AppliedMetric = m.Value
	}
	return res
}

// SpinConfig parameterizes the spin-bit scenario.
type SpinConfig struct {
	Seed     int64
	Duration netsim.Time
	// MaxFlips bounds the ping-pong exchange.
	MaxFlips int
	// SweepFrom starts the collector sweeps; DefaultSpin places it
	// after the flow quiesces so sweep probes never queue behind flow
	// packets and perturb the intervals being measured.
	SweepFrom, SweepEvery netsim.Time
}

// DefaultSpin is the canonical run: 400 flips over a 3-switch line
// with deterministic server think-time variation, swept after the flow
// completes.
func DefaultSpin(seed int64) SpinConfig {
	return SpinConfig{
		Seed:       seed,
		Duration:   2 * netsim.Second,
		MaxFlips:   400,
		SweepFrom:  1500 * netsim.Millisecond,
		SweepEvery: 50 * netsim.Millisecond,
	}
}

// SpinResult is the spin scenario's observable outcome.
type SpinResult struct {
	Flips      uint64
	Truth      [obs.NumBuckets]uint64 // client-measured flip intervals
	SRAM       [obs.NumBuckets]uint64 // observer's window, read directly
	Current    [obs.NumBuckets]uint64 // collector's swept view
	Cumulative [obs.NumBuckets]uint64

	TruthTotal uint64

	// Observer reconciliation: switch accessors == metrics == spans.
	Edges         uint64
	Samples       uint64
	EdgesMetric   int64
	SamplesMetric int64
	EdgeSpans     int

	Sweeps          uint64
	SweepSpans      int
	Discontinuities uint64
	SpansDropped    uint64
}

// RunSpin executes the spin-bit scenario: a ping-pong flow drives the
// spin bit across a 3-switch line, the middle switch passively infers
// every RTT interval from bit transitions alone, and a collector
// sweeps the resulting SRAM histogram after the flow quiesces.  Under
// constant per-hop delay (no loss, no competing traffic, equal-size
// packets) the observer's intervals equal the client's exactly, so the
// dataplane histogram matches ground truth bucket-for-bucket.
func RunSpin(cfg SpinConfig) SpinResult {
	if cfg.Duration <= 0 {
		cfg = DefaultSpin(cfg.Seed)
	}
	sim := netsim.New(cfg.Seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 19)

	// A 3-switch line, observer in the middle — built by hand so only
	// the observer carries the tracer.
	n := topo.NewNetwork(sim)
	sws := []*asic.Switch{
		n.AddSwitch(asic.Config{Ports: 4, Metrics: reg}),
		n.AddSwitch(asic.Config{Ports: 4, Metrics: reg, Trace: tracer}),
		n.AddSwitch(asic.Config{Ports: 4, Metrics: reg}),
	}
	n.SetTrace(nil)
	backbone := topo.Mbps(100, 10*netsim.Microsecond)
	edge := topo.Mbps(100, 10*netsim.Microsecond)
	n.LinkSwitches(sws[0], sws[1], backbone)
	n.LinkSwitches(sws[1], sws[2], backbone)
	client := n.AddHost()
	server := n.AddHost()
	n.LinkHost(client, sws[0], edge)
	n.LinkHost(server, sws[2], edge)
	mid := sws[1]

	// The observer's window comes from the control-plane agent, like
	// any other network task's SRAM.
	ag := agent.New(sws...)
	task, err := ag.Register("inband/spin", obs.NumBuckets, 0)
	if err != nil {
		panic(fmt.Sprintf("inband: agent.Register: %v", err))
	}
	mid.WatchSpin(client.IP, server.IP, task.Region.Base)

	n.PrimeL2(5 * netsim.Millisecond)

	flow := NewSpinFlow(SpinFlowConfig{
		Client: client, Server: server,
		// Deterministic think-time variation spreads intervals across
		// buckets: 100µs + {0..28}*37µs.
		ReplyDelay: func(i int) netsim.Time {
			return 100*netsim.Microsecond + netsim.Time((i*37)%29)*37*netsim.Microsecond
		},
		MaxFlips:   cfg.MaxFlips,
		PayloadLen: 200,
	})
	flow.Start()

	collProber := endhost.NewProber(client)
	collProber.SetDefaults(endhost.ProbeConfig{
		Timeout: 25 * netsim.Millisecond, Retries: 2, Backoff: 2})
	coll := NewCollector(CollectorConfig{
		Prober: collProber, DstMAC: server.MAC, DstIP: server.IP,
		Spec:    HistSpec{SwitchID: mid.ID(), Base: task.Region.Base, Buckets: obs.NumBuckets},
		Metrics: reg, Tracer: tracer, Name: "spincollector",
		Now: func() int64 { return int64(sim.Now()) },
	})
	sim.Every(cfg.SweepFrom, cfg.SweepEvery, func() { coll.Sweep() })

	sim.RunUntil(cfg.Duration)

	var res SpinResult
	res.Flips = flow.Flips
	for i := 0; i < obs.NumBuckets; i++ {
		res.Truth[i] = flow.Truth.Bucket(i)
		res.SRAM[i] = uint64(mid.SRAM(mem.SRAMIndex(task.Region.Base + mem.Addr(i))))
		res.Current[i] = uint64(coll.CurrentBucket(i))
		res.Cumulative[i] = coll.CumulativeBucket(i)
		res.TruthTotal += res.Truth[i]
	}
	res.Edges = mid.SpinEdges(client.IP, server.IP)
	res.Samples = mid.SpinSamples(client.IP, server.IP)
	res.Sweeps = coll.Sweeps()
	res.Discontinuities = coll.Discontinuities()
	res.SpansDropped = tracer.Dropped()
	for _, ev := range tracer.Events() {
		switch {
		case ev.Stage == obs.StageSpinEdge && ev.Node == mid.ID():
			res.EdgeSpans++
		case ev.Stage == obs.StageSweep && ev.Node == mid.ID():
			res.SweepSpans++
		}
	}
	snap := reg.Snapshot(int64(sim.Now()))
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/spin_edges", mid.ID())); ok {
		res.EdgesMetric = m.Value
	}
	if m, ok := snap.Get(fmt.Sprintf("switch/%d/spin_samples", mid.ID())); ok {
		res.SamplesMetric = m.Value
	}
	return res
}
