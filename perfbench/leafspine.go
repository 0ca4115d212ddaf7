package main

import (
	"fmt"
	"math/rand"

	"repro/internal/accounting"
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/inband"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/reflex"
	"repro/internal/topo"
)

// The leaf-spine fabric both leafspine_* workloads run on: 4 leaves x
// 2 spines x 8 hosts per leaf, 1 Gb/s links.  Leaf port s climbs to
// spine s, spine port l descends to leaf l, and host j of a leaf sits
// on leaf port lsSpines+j.  Host j of any leaf is reached through
// spine j mod 2, so the fabric never depends on L2 learning.
const (
	lsLeaves = 4
	lsSpines = 2
	lsHosts  = 8
	dataPort = 9000 // UDP port of the workloads' data frames
	maxHops  = 4    // telemetry TPP memory, in hop records
)

var (
	lsEdge   = topo.Mbps(1000, 5*netsim.Microsecond)
	lsFabric = topo.Mbps(1000, 10*netsim.Microsecond)
)

type leafSpine struct {
	*env
	leaves, spines []*asic.Switch
	hosts          [][]*endhost.Host
	leafOf         map[uint32]int // host IP -> leaf index
	ctrl           *fabric.Controller
	spec           fabric.Spec
	rng            *rand.Rand // workload inputs, separate from the simulator's
}

// buildLeafSpine wires the fabric and provisions its routes (and any
// extra per-spine services) through fabric.Controller: Diff, Apply,
// Verify, as chaos.Run does.
func buildLeafSpine(seed int64, tr *tracer, spineServices func(spine int) []fabric.Service) (*leafSpine, error) {
	e := newEnv(seed, tr)
	ls := &leafSpine{env: e, leafOf: map[uint32]int{}, rng: rand.New(rand.NewSource(seed))}
	for s := 0; s < lsSpines; s++ {
		ls.spines = append(ls.spines, e.addSwitch(asic.Config{Ports: lsLeaves}))
	}
	for l := 0; l < lsLeaves; l++ {
		leaf := e.addSwitch(asic.Config{Ports: lsSpines + lsHosts})
		ls.leaves = append(ls.leaves, leaf)
		for s, sp := range ls.spines {
			e.linkSwitches(leaf, s, sp, l, lsFabric)
		}
	}
	for l, leaf := range ls.leaves {
		var hs []*endhost.Host
		for j := 0; j < lsHosts; j++ {
			h := e.addHost()
			e.linkHost(h, leaf, lsSpines+j, lsEdge)
			ls.leafOf[h.IP] = l
			hs = append(hs, h)
		}
		ls.hosts = append(ls.hosts, hs)
	}

	leafRoutes := make([][]fabric.Route, lsLeaves)
	spineRoutes := make([][]fabric.Route, lsSpines)
	for l, hs := range ls.hosts {
		for j, h := range hs {
			for other := range ls.leaves {
				r := fabric.Route{DstIP: h.IP, Priority: 10, OutPort: j % lsSpines}
				if other == l {
					r = fabric.Route{DstIP: h.IP, Priority: 100, OutPort: lsSpines + j}
				}
				leafRoutes[other] = append(leafRoutes[other], r)
			}
			for s := range ls.spines {
				spineRoutes[s] = append(spineRoutes[s], fabric.Route{DstIP: h.IP, Priority: 10, OutPort: l})
			}
		}
	}
	ls.ctrl = fabric.New(e.sim)
	for l, sw := range ls.leaves {
		name := fmt.Sprintf("leaf%d", l)
		ls.ctrl.Register(name, sw)
		ls.spec.Devices = append(ls.spec.Devices, fabric.DeviceSpec{Device: name, Routes: leafRoutes[l]})
	}
	for s, sw := range ls.spines {
		name := fmt.Sprintf("spine%d", s)
		ls.ctrl.Register(name, sw)
		d := fabric.DeviceSpec{Device: name, Routes: spineRoutes[s]}
		if spineServices != nil {
			d.Services = spineServices(s)
		}
		ls.spec.Devices = append(ls.spec.Devices, d)
	}

	var err error
	t0 := monoNow()
	e.timed(bFabric, func() { err = ls.provision() })
	e.applyMs = float64(monoNow()-t0) / 1e6
	return ls, err
}

// provision is the controller's dry-run diff, verified apply and
// read-back verify of the whole spec.
func (ls *leafSpine) provision() error {
	cs, derrs, err := ls.ctrl.Diff(ls.spec)
	if err != nil {
		return fmt.Errorf("fabric diff: %w", err)
	}
	if len(derrs) > 0 {
		return fmt.Errorf("fabric diff: %v", derrs[0].Error())
	}
	rep := ls.ctrl.Apply(cs)
	if !rep.OK() {
		return fmt.Errorf("fabric apply: %v", rep.Errors()[0].Error())
	}
	if errs := ls.ctrl.Verify(ls.spec); len(errs) > 0 {
		return fmt.Errorf("fabric verify: %v", errs[0].Error())
	}
	return nil
}

// peer picks a seeded random destination other than src.
func (ls *leafSpine) peer(srcLeaf, srcIdx int) *endhost.Host {
	for {
		l, j := ls.rng.Intn(lsLeaves), ls.rng.Intn(lsHosts)
		if l != srcLeaf || j != srcIdx {
			return ls.hosts[l][j]
		}
	}
}

// pathLen is how many switches a frame crosses between two hosts.
func (ls *leafSpine) pathLen(src, dst uint32) int {
	if ls.leafOf[src] == ls.leafOf[dst] {
		return 1
	}
	return 3
}

// openLoop starts a Poisson sender on every host: each sends a
// payload-byte frame to a seeded random peer, with exponential gaps of
// the given mean, until stopAt.  instrument, when set, turns each
// frame into a TPP frame before it is sent.  It returns the count of
// frames handed to Send.
func (ls *leafSpine) openLoop(meanGap, stopAt netsim.Time, payload int, instrument func(*core.Packet)) *uint64 {
	sent := new(uint64)
	for l, hs := range ls.hosts {
		for j, h := range hs {
			var fire func()
			next := func() {
				gap := netsim.Time(ls.rng.ExpFloat64() * float64(meanGap))
				if t := ls.sim.Now() + gap + 1; t < stopAt {
					ls.sim.At(t, fire)
				}
			}
			fire = func() {
				dst := ls.peer(l, j)
				ls.timed(bSend, func() {
					pkt := h.NewPacket(dst.MAC, dst.IP, dataPort, dataPort, payload)
					if instrument != nil {
						instrument(pkt)
					}
					h.Send(pkt)
				})
				*sent++
				next()
			}
			next()
		}
	}
	return sent
}

// onData registers the same data-frame handler on every host.
func (ls *leafSpine) onData(fn endhost.Handler) {
	w := ls.handler(fn)
	for _, hs := range ls.hosts {
		for _, h := range hs {
			h.Handle(dataPort, w)
		}
	}
}

// buildLeafSpineINT is the read-only telemetry workload: every host
// sends 64-byte frames open-loop (mean gap 10 us, about 10% of its
// link) to seeded random peers, and every frame carries the microburst
// PUSH [Queue:QueueSize] TPP, so every hop runs the TCPU and every
// lookup walks the TCAM band.
func buildLeafSpineINT(seed int64, tr *tracer) (*env, error) {
	ls, err := buildLeafSpine(seed, tr, nil)
	if err != nil {
		return nil, err
	}
	const stopAt = 40 * netsim.Millisecond
	sent := ls.openLoop(10*netsim.Microsecond, stopAt, 64, func(p *core.Packet) {
		microburst.Instrument(p, maxHops)
	})
	var delivered, badHops uint64
	ls.onData(func(p *core.Packet) {
		delivered++
		if p.TPP == nil {
			badHops++
			return
		}
		q := microburst.HopQueues(p.TPP)
		if len(q) != ls.pathLen(p.IP.Src, p.IP.Dst) {
			badHops++
		}
		ls.digest.add(uint64(len(q)))
		for _, v := range q {
			ls.digest.add(uint64(v))
		}
	})
	ls.measuredTo = stopAt
	// About 1 ms of wall time, as on fig2_rcpstar and for the same reason.
	ls.slice = 100 * netsim.Microsecond
	ls.quiet = stopAt + netsim.Millisecond
	ls.check = func() []string {
		var bad []string
		if badHops > 0 {
			bad = append(bad, fmt.Sprintf("leafspine_int: %d frames lack one queue word per switch on their path", badHops))
		}
		if delivered != *sent {
			bad = append(bad, fmt.Sprintf("leafspine_int: %d frames sent, %d delivered", *sent, delivered))
		}
		ls.digest.add(delivered)
		return bad
	}
	return ls.env, nil
}

// leafspine_writes timeline, in simulated time from the start of the
// measured part.
const (
	wrFaultsFrom  = 5 * netsim.Millisecond
	wrFaultsTo    = 38 * netsim.Millisecond
	wrSampleTo    = 40 * netsim.Millisecond
	wrAddsTo      = 45 * netsim.Millisecond
	wrFinal       = 50 * netsim.Millisecond // closing Converge
	wrTrafficTo   = 55 * netsim.Millisecond
	wrStop        = 79 * netsim.Millisecond // collector and probers stop
	wrMeasuredTo  = 80 * netsim.Millisecond
	addEvery      = 500 * netsim.Microsecond // per accounting host
	wrProbeTarget = 1                        // host index whose routes ride spine 1
)

// buildLeafSpineWrites is the write workload on the same fabric:
//   - four hosts, one per leaf, add to one accounting CSTORE counter on
//     spine 0 (contended: every 500 us each);
//   - an inband.HistWriter CSTOREs host-measured RTTs into a histogram
//     on spine 1 while a Collector sweeps it every 2 ms;
//   - a reflex arm on every leaf heartbeats both uplinks and may detour
//     one prefix from spine 1 onto spine 0;
//   - a seeded faults plan gray-flaps leaf-spine1 links and
//     crash-restarts spine 1 every 12 ms, and fabric Converge passes
//     every 5 ms restore spine 1's managed service after each wipe;
//   - plain background frames (mean gap 40 us per host) load the
//     queues.
func buildLeafSpineWrites(seed int64, tr *tracer) (*env, error) {
	ls, err := buildLeafSpine(seed, tr, func(s int) []fabric.Service {
		if s == 0 {
			return []fabric.Service{{Name: "tally", Words: 1}}
		}
		return []fabric.Service{{Name: "spine1-state", Words: 4, Seed: []uint32{1, 2, 3, 4}}}
	})
	if err != nil {
		return nil, err
	}
	e, sim := ls.env, ls.sim
	spine0, spine1 := ls.spines[0], ls.spines[1]
	tally, ok := spine0.Allocator().Lookup("fabric/tally")
	if !ok {
		return nil, fmt.Errorf("leafspine_writes: tally service not provisioned")
	}
	// The histogram window sits after spine 1's managed service, which
	// every post-reboot Converge re-allocates first-fit at the same base.
	hist, err := spine1.Allocator().Alloc("bench/rtt-hist", obs.NumBuckets)
	if err != nil {
		return nil, err
	}

	// Reflex arms: both uplinks monitored through a reflector on the
	// same leaf; one spine-1 prefix per leaf may detour onto spine 0.
	for l, leaf := range ls.leaves {
		arm, err := reflex.Attach(sim, leaf, reflex.Config{Metrics: e.reg})
		if err != nil {
			return nil, err
		}
		refl := ls.hosts[l][lsHosts-1]
		for p := 0; p < lsSpines; p++ {
			if err := arm.Monitor(p, refl.MAC, refl.IP); err != nil {
				return nil, err
			}
		}
		dst := ls.hosts[(l+2)%lsLeaves][5]
		if err := arm.Authorize(fmt.Sprintf("leaf%d-detour", l), dst.IP, 1, 0); err != nil {
			return nil, err
		}
		ls.ctrl.RegisterDetours(fmt.Sprintf("leaf%d", l), arm)
		e.arms = append(e.arms, arm)
	}

	// Contended accounting: host 0 of each leaf adds 1 every 500 us
	// through spine 0 (host 0 of the next leaf is the probe target).
	var adds, resolved uint64
	var counters []*accounting.Counter
	for l := 0; l < lsLeaves; l++ {
		h, dst := ls.hosts[l][0], ls.hosts[(l+1)%lsLeaves][0]
		c := accounting.NewCounter(e.newProber(h), dst.MAC, dst.IP, spine0.ID(), tally.Base, accounting.Atomic)
		counters = append(counters, c)
		phase := netsim.Time(ls.rng.Intn(500)) * netsim.Microsecond
		sim.Every(phase+netsim.Microsecond, addEvery, func() {
			if sim.Now() > wrAddsTo {
				return
			}
			adds++
			e.timed(bCounterAdd, func() { c.Add(1, func(uint32) { resolved++ }) })
		})
	}

	// RTT histogram: host 1 of leaf 0 measures RTTs to host 1 of leaf 1
	// (both ride spine 1) and writes them into spine 1's window; host 3
	// of leaf 0 sweeps the window.
	probeCfg := endhost.ProbeConfig{Timeout: netsim.Millisecond, Retries: 3, Backoff: 2}
	spec := inband.HistSpec{SwitchID: spine1.ID(), Base: hist.Base, Buckets: obs.NumBuckets}
	wHost, target := ls.hosts[0][wrProbeTarget], ls.hosts[1][wrProbeTarget]
	wProber := e.newProber(wHost)
	wProber.SetDefaults(probeCfg)
	writer := inband.NewHistWriter(inband.WriterConfig{
		Prober: wProber, DstMAC: target.MAC, DstIP: target.IP, Spec: spec, Probe: probeCfg,
	})
	cHost, cTarget := ls.hosts[0][3], ls.hosts[1][3]
	cProber := e.newProber(cHost)
	cProber.SetDefaults(probeCfg)
	coll := inband.NewCollector(inband.CollectorConfig{
		Prober: cProber, DstMAC: cTarget.MAC, DstIP: cTarget.IP, Spec: spec,
		Now: func() int64 { return int64(sim.Now()) },
	})
	sweeps := sim.Every(2*netsim.Millisecond, 2*netsim.Millisecond, func() { coll.Sweep() })
	truth := obs.NewHistogram()
	sim.Every(200*netsim.Microsecond, 200*netsim.Microsecond, func() {
		if sim.Now() > wrSampleTo {
			return
		}
		t0 := sim.Now()
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		}, 1)
		e.timed(bProbe, func() {
			wProber.ProbeCfg(target.MAC, target.IP, tpp, probeCfg, func(*core.TPP) {
				rtt := uint64(sim.Now() - t0)
				truth.Observe(rtt)
				e.timed(bHistObserve, func() { writer.Observe(rtt) })
			}, nil)
		})
	})

	// Faults: seeded gray flaps on leaf-spine1 links and a periodic
	// spine-1 crash-restart.
	inj := faults.NewInjector(sim, nil)
	inj.RegisterSwitch("spine1", spine1)
	for l, leaf := range ls.leaves {
		inj.RegisterLink(fmt.Sprintf("leaf%d-spine1", l), leaf.Port(1).Channel(), spine1.Port(l).Channel())
	}
	plan := faults.Plan{Seed: seed}
	for i := 0; i < 4; i++ {
		at := wrFaultsFrom + netsim.Time(ls.rng.Int63n(int64(wrFaultsTo-wrFaultsFrom-4*netsim.Millisecond)))
		down := netsim.Millisecond + netsim.Time(ls.rng.Int63n(int64(2*netsim.Millisecond)))
		target := fmt.Sprintf("leaf%d-spine1", ls.rng.Intn(lsLeaves))
		dir := ls.rng.Intn(2)
		plan.Events = append(plan.Events,
			faults.Event{At: at, Kind: faults.LinkGrayDown, Target: target, Dir: dir},
			faults.Event{At: at + down, Kind: faults.LinkGrayUp, Target: target, Dir: dir})
	}
	for at := 10 * netsim.Millisecond; at < wrFaultsTo; at += 12 * netsim.Millisecond {
		plan.Events = append(plan.Events, faults.Event{At: at, Kind: faults.SwitchReboot,
			Target: "spine1", BootDelay: 500 * netsim.Microsecond})
	}
	if err := inj.Schedule(plan); err != nil {
		return nil, err
	}

	// Periodic Converge passes, then the closing one.
	convergeCfg := fabric.ConvergeConfig{Budget: 4, Backoff: netsim.Millisecond}
	record := func(r fabric.ConvergeResult) {
		ls.convergeRounds += uint64(r.Attempts)
		ls.mutations += uint64(r.OpsApplied)
	}
	sim.Every(5*netsim.Millisecond, 5*netsim.Millisecond, func() {
		if sim.Now() < wrFinal {
			e.timed(bFabric, func() { ls.ctrl.Converge(ls.spec, convergeCfg, record) })
		}
	})
	var final fabric.ConvergeResult
	sim.At(wrFinal, func() {
		e.timed(bFabric, func() {
			ls.ctrl.Converge(ls.spec, convergeCfg, func(r fabric.ConvergeResult) { record(r); final = r })
		})
	})

	ls.openLoop(40*netsim.Microsecond, wrTrafficTo, 64, nil)
	var bgDelivered uint64
	ls.onData(func(*core.Packet) { bgDelivered++ })

	sim.At(wrStop, func() {
		sweeps.Stop()
		for _, p := range e.probers {
			p.Forget()
		}
	})

	ls.measuredTo = wrMeasuredTo
	// About 1 ms of wall time, as on fig2_rcpstar and for the same reason.
	ls.slice = 500 * netsim.Microsecond
	// The reflex heartbeats never stop: check at an instant between
	// two heartbeat rounds, after the last round's echoes landed.
	ls.quiet = wrMeasuredTo + 2*netsim.Millisecond + 45*netsim.Microsecond
	ls.check = func() []string {
		var bad []string
		var failed, retries uint64
		for _, c := range counters {
			failed += c.Failures
			retries += c.Retries
		}
		acked := resolved - failed
		if resolved != adds {
			bad = append(bad, fmt.Sprintf("leafspine_writes: %d adds issued, %d resolved", adds, resolved))
		}
		if got := uint64(spine0.SRAM(mem.SRAMIndex(tally.Base))); got != acked {
			bad = append(bad, fmt.Sprintf("leafspine_writes: CSTORE tally %d != %d acknowledged adds", got, acked))
		}
		if !writer.Drained() {
			bad = append(bad, fmt.Sprintf("leafspine_writes: histogram writer did not drain: %d samples pending, %d failed attempts, %d inconclusive, %d rebases", writer.PendingSamples(), writer.Failures, writer.Inconclusive, writer.Rebases))
		}
		for i := 0; i < obs.NumBuckets; i++ {
			want := truth.Bucket(i)
			sram := uint64(spine1.SRAM(mem.SRAMIndex(hist.Base + mem.Addr(i))))
			if uint64(coll.CurrentBucket(i)) != want || sram != want {
				bad = append(bad, fmt.Sprintf("leafspine_writes: RTT bucket %d: truth %d, collected %d, SRAM %d",
					i, want, coll.CurrentBucket(i), sram))
				break
			}
			ls.digest.add(want)
		}
		if truth.Count() == 0 {
			bad = append(bad, "leafspine_writes: no RTT samples")
		}
		// Each post-reboot Converge re-allocates the managed service.
		if svc, ok := spine1.Allocator().Lookup("fabric/spine1-state"); !ok {
			bad = append(bad, "leafspine_writes: spine 1's managed service was not restored")
		} else if hist.Base < svc.End() && svc.Base < hist.End() {
			bad = append(bad, "leafspine_writes: histogram window overlaps a managed service")
		}
		if !final.Converged {
			bad = append(bad, "leafspine_writes: closing Converge did not converge")
		}
		if errs := ls.ctrl.Verify(ls.spec); len(errs) > 0 {
			bad = append(bad, fmt.Sprintf("leafspine_writes: fabric does not verify: %v", errs[0].Error()))
		}
		// Conclusive CSTORE attempts: each add that committed, each
		// conflict, and each writer echo that proved what SRAM held.
		ls.cstoreAttempts = acked + retries + writer.Applied + writer.Duplicates + writer.Adopted
		ls.digest.add(acked, bgDelivered, writer.Applied, writer.Duplicates, writer.Rebases, uint64(final.Attempts))
		return bad
	}
	return e, nil
}
