package asic

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/l2"
	"repro/internal/l3"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
	"repro/internal/tcpu"
	"repro/internal/verify"
)

// Config parameterizes a switch.
type Config struct {
	// ID is the administratively assigned switch id ([Switch:SwitchID]).
	ID uint32
	// Ports is the port count.
	Ports int
	// QueuesPerPort selects the number of egress queues per port
	// (default 1; the scheduler serves them in strict priority).
	QueuesPerPort int
	// QueueCapBytes is each egress queue's capacity (default 150000,
	// one hundred 1500-byte frames).
	QueueCapBytes int
	// PipelineLatency is the fixed parse+lookup latency before a
	// packet reaches the queues (default 500ns, of which the §3.3
	// TCPU budget is a part).
	PipelineLatency netsim.Time
	// StatsInterval is the housekeeping period for utilization meters
	// (default 10ms).
	StatsInterval netsim.Time
	// UtilGain is the EWMA gain of the utilization meters (default
	// 0.5).
	UtilGain float64
	// TCPU configures the tiny CPU (instruction limit).
	TCPU tcpu.Config
	// Verify enables the paranoid parser: every TPP arriving on a
	// trusted port is statically verified before execution, and
	// programs with error-severity diagnostics are stripped instead
	// of run.  Nil (the default) trusts end-hosts to pre-verify, as
	// §3.5 assumes.  Zero-valued limits in the config are resolved
	// against this switch's TCPU instruction limit and port count.
	Verify *verify.Config
	// L2AgeNs is the MAC table entry lifetime in nanoseconds.
	L2AgeNs int64

	// TPPRate enables the TCPU admission gate: a token bucket refilled
	// at TPPRate executions per second with burst capacity TPPBurst.
	// When the bucket is empty an arriving TPP is *not* executed — the
	// packet forwards unmodified with core.FlagThrottled set, degrading
	// to plain forwarding exactly as the line-rate argument requires —
	// and the tpps_throttled counter and a StageThrottle span record
	// the event.  Zero (the default) disables the gate: every TPP
	// executes, as the paper's per-packet cycle budget assumes.
	TPPRate float64
	// TPPBurst is the token bucket depth; zero is resolved to
	// DefaultTPPBurst when TPPRate is set, like the verify limits.
	TPPBurst int

	// Guard enables the multi-tenant isolation subsystem: per-tenant
	// SRAM partitions with base+bounds relocation, per-namespace ACLs
	// enforced fail-forward in the TCPU memory stage, and — when
	// TPPRate is also set — per-tenant admission buckets splitting the
	// aggregate rate by weighted share (replacing the global bucket).
	// Tenants are admitted with Switch.GrantTenant; the operator tenant
	// (id 0) is built in with full access, so a guarded switch carrying
	// only untenanted traffic behaves exactly like an unguarded one.
	Guard bool

	// ECNThresholdBytes enables the fixed-function ECN comparator of
	// §4 ("a router stamps a bit in the IP header whenever the egress
	// queue occupancy exceeds a configurable threshold"): ECN-capable
	// packets are marked CE when the egress queue is at or above this
	// many bytes.  Zero disables marking.
	ECNThresholdBytes int
	// RecordRoute enables the fixed-function IP Record Route
	// comparator of §4: switches append their id to a packet's RR
	// option.  (Real routers record interface IPs; our switches have
	// none, so the id stands in.)
	RecordRoute bool

	// Metrics registers this switch's counters and histograms
	// (hierarchically keyed switch/<id>/...).  Nil disables metric
	// recording: the hot path then touches only nil handles, which
	// cost one branch and never allocate.
	Metrics *obs.Registry
	// Trace records packet-lifecycle span events at every pipeline
	// stage (parser, lookup, TCPU, memory manager, egress queue,
	// scheduler).  Nil disables tracing.  Enabling it also turns on
	// per-instruction TCPU spans (tcpu.Config.RecordSpans).
	Trace *obs.Tracer
}

func (c *Config) fill() {
	if c.Ports <= 0 {
		c.Ports = 4
	}
	if c.QueuesPerPort <= 0 {
		c.QueuesPerPort = 1
	}
	if c.QueueCapBytes <= 0 {
		c.QueueCapBytes = 150_000
	}
	if c.PipelineLatency <= 0 {
		c.PipelineLatency = 500 * netsim.Nanosecond
	}
	if c.StatsInterval <= 0 {
		c.StatsInterval = 10 * netsim.Millisecond
	}
	if c.UtilGain <= 0 || c.UtilGain > 1 {
		c.UtilGain = 0.5
	}
	if c.TPPRate > 0 && c.TPPBurst <= 0 {
		c.TPPBurst = DefaultTPPBurst
	}
}

// DefaultTPPBurst is the admission-gate bucket depth when TPPRate is
// configured without an explicit burst.
const DefaultTPPBurst = 8

// ForwardFunc observes every packet the switch forwards; the baseline
// ndb implementation (§2.3) attaches here to generate its truncated
// per-hop packet copies.
type ForwardFunc func(pkt *core.Packet, inPort, outPort int)

// ReflexHook is the dataplane failure-reaction agent (internal/reflex):
// it sees every packet after egress selection and may override the
// egress port — the sub-RTT fast-reroute path.  The hook runs at
// per-packet cadence on the forwarding hot path and must not allocate
// in steady state.
type ReflexHook interface {
	Transit(pkt *core.Packet, outPort int) int
}

// Switch is a TPP-capable switch.
type Switch struct {
	sim *netsim.Sim
	cfg Config

	ports []*Port
	l2    *l2.Table
	l3    *l3.Table
	tcam  *tcam.Table

	alloc *mem.Allocator
	sram  []uint32
	busMu sync.Mutex // serializes TPP stores, making CSTORE linearizable

	packets       uint64 // packets switched
	cstores       uint64 // CSTORE commits (compare matched, store applied)
	tppsExecuted  uint64
	tppsStripped  uint64
	tppsRejected  uint64 // stripped by the paranoid verifier
	tppsThrottled uint64 // forwarded without execution (gate exhausted)
	tppsDenied    uint64 // guarded accesses denied (poisoned loads + dropped stores)
	ttlDrops      uint64
	blackholes    uint64 // packets with no forwarding decision

	// Crash-restart state.  epoch is the boot generation counter
	// exposed at [Switch:Epoch]; it increments on every Reboot so
	// end-hosts can detect that soft state was wiped.  booting is set
	// for the boot-delay window, during which the switch eats every
	// arriving frame.
	epoch       uint32
	booting     bool
	reboots     uint64
	rebootDrops uint64 // packets eaten while down or wiped mid-pipeline

	// TCPU admission gate (token bucket; active when cfg.TPPRate > 0).
	tppTokens   float64
	tppRefillAt netsim.Time

	// Tenant guard (nil unless cfg.Guard): the table holds every grant
	// in force plus the per-tenant admission buckets; mTenantDenied
	// caches the per-tenant denial metric handles.
	guard         *guard.Table
	mTenantDenied map[guard.TenantID]*obs.Counter

	// spin holds the fixed-function spin-bit observers (§4-style
	// comparator; nil when none are installed).  The slice keeps watch
	// iteration deterministic.
	spin []*spinWatch

	mirror ForwardFunc
	reflex ReflexHook

	// tcpuOff disables TPP execution on this switch (fault injection:
	// a broken or administratively disabled TCPU).  Packets still
	// forward; their programs simply do not run here, so hop traces
	// skip this switch.
	tcpuOff bool

	// execView and execGuard are the per-execution memory-view scratch:
	// the dataplane is single-threaded (one event at a time), so the
	// TCPU can reuse one view per switch instead of allocating one per
	// packet.  They are rebound in execTPP and never escape it.
	execView  view
	execGuard guardedView

	// Telemetry: span tracer plus pre-resolved metric handles (all
	// nil when disabled — recording through them is then a no-op).
	tracer *obs.Tracer
	m      switchMetrics

	// LastTCPU holds the result of the most recent TPP execution,
	// for tests and the cycle-model experiments.
	LastTCPU tcpu.Result
}

// switchMetrics bundles the per-switch metric handles, resolved once
// at construction so the dataplane never does name lookups.
type switchMetrics struct {
	packets       *obs.Counter
	tpps          *obs.Counter
	tppFaults     *obs.Counter
	tppOverBudget *obs.Counter
	tppsStripped  *obs.Counter
	tppsRejected  *obs.Counter
	tppsThrottled *obs.Counter
	tppsDenied    *obs.Counter
	ttlDrops      *obs.Counter
	blackholes    *obs.Counter
	reboots       *obs.Counter
	rebootDrops   *obs.Counter
	cstores       *obs.Counter   // CSTORE commits
	spinEdges     *obs.Counter   // spin-bit transitions observed
	spinSamples   *obs.Counter   // spin intervals bucketed into SRAM
	tcpuCycles    *obs.Histogram // modeled cycles per TPP execution
	hopLatency    *obs.Histogram // ns from parser to scheduler dequeue
}

// New builds a switch and registers its housekeeping ticker with the
// simulator.
func New(sim *netsim.Sim, cfg Config) *Switch {
	cfg.fill()
	if cfg.Trace != nil {
		// Per-instruction TCPU spans ride along with lifecycle
		// tracing so -trace output can audit the §3.3 budget.
		cfg.TCPU.RecordSpans = true
	}
	if cfg.Verify != nil {
		// Resolve the verifier against this device's actual limits so
		// static acceptance matches what the TCPU will enforce.
		v := *cfg.Verify
		if v.MaxInstructions <= 0 {
			v.MaxInstructions = cfg.TCPU.MaxInstructions
		}
		if v.Ports <= 0 {
			v.Ports = cfg.Ports
		}
		cfg.Verify = &v
	}
	s := &Switch{
		sim:    sim,
		cfg:    cfg,
		l2:     l2.New(cfg.L2AgeNs),
		l3:     l3.New(),
		tcam:   tcam.New(),
		alloc:  mem.NewAllocator(),
		sram:   make([]uint32, mem.SRAMWords),
		tracer: cfg.Trace,
	}
	s.tppTokens = float64(cfg.TPPBurst) // the gate starts full
	if cfg.Guard {
		s.guard = guard.NewTable()
		s.mTenantDenied = make(map[guard.TenantID]*obs.Counter)
		// Mutual avoidance: operator task regions and tenant partitions
		// share the one SRAM bank, and both sides carve it first-fit
		// from SRAMBase.  Without cross-registration a tenant grant can
		// land exactly over a live operator region (zeroing it, then
		// aliasing it through the tenant's relocated window) and a
		// post-reboot re-allocation can land inside a surviving tenant
		// partition.  Each carver treats the other's live regions as
		// taken.
		s.guard.SetReserved(s.alloc.Regions)
		s.alloc.SetReserved(s.guard.Partitions)
	}
	reg := cfg.Metrics // nil registry hands out nil (no-op) handles
	s.m = switchMetrics{
		packets:       reg.Counter(fmt.Sprintf("switch/%d/packets", cfg.ID)),
		tpps:          reg.Counter(fmt.Sprintf("switch/%d/tpps_executed", cfg.ID)),
		tppFaults:     reg.Counter(fmt.Sprintf("switch/%d/tpp_faults", cfg.ID)),
		tppOverBudget: reg.Counter(fmt.Sprintf("switch/%d/tcpu_over_budget", cfg.ID)),
		tppsStripped:  reg.Counter(fmt.Sprintf("switch/%d/tpps_stripped", cfg.ID)),
		tppsRejected:  reg.Counter(fmt.Sprintf("switch/%d/tpps_rejected", cfg.ID)),
		tppsThrottled: reg.Counter(fmt.Sprintf("switch/%d/tpps_throttled", cfg.ID)),
		tppsDenied:    reg.Counter(fmt.Sprintf("switch/%d/tpps_denied", cfg.ID)),
		ttlDrops:      reg.Counter(fmt.Sprintf("switch/%d/ttl_drops", cfg.ID)),
		blackholes:    reg.Counter(fmt.Sprintf("switch/%d/blackholes", cfg.ID)),
		reboots:       reg.Counter(fmt.Sprintf("switch/%d/reboots", cfg.ID)),
		rebootDrops:   reg.Counter(fmt.Sprintf("switch/%d/reboot_drops", cfg.ID)),
		cstores:       reg.Counter(fmt.Sprintf("switch/%d/cstore_commits", cfg.ID)),
		spinEdges:     reg.Counter(fmt.Sprintf("switch/%d/spin_edges", cfg.ID)),
		spinSamples:   reg.Counter(fmt.Sprintf("switch/%d/spin_samples", cfg.ID)),
		tcpuCycles:    reg.Histogram(fmt.Sprintf("switch/%d/tcpu_cycles", cfg.ID)),
		hopLatency:    reg.Histogram(fmt.Sprintf("switch/%d/hop_latency_ns", cfg.ID)),
	}
	for i := 0; i < cfg.Ports; i++ {
		p := &Port{
			sw:      s,
			id:      i,
			trusted: true,
			rxUtil:  newMeter(cfg.UtilGain, cfg.StatsInterval.Seconds()),
			txUtil:  newMeter(cfg.UtilGain, cfg.StatsInterval.Seconds()),

			mQueueDepth: reg.Histogram(fmt.Sprintf("switch/%d/port/%d/queue_depth_bytes", cfg.ID, i)),
			mTxBytes:    reg.Counter(fmt.Sprintf("switch/%d/port/%d/tx_bytes", cfg.ID, i)),
			mDrops:      reg.Counter(fmt.Sprintf("switch/%d/port/%d/drops", cfg.ID, i)),
		}
		for q := 0; q < cfg.QueuesPerPort; q++ {
			p.queues = append(p.queues, NewQueue(cfg.QueueCapBytes))
		}
		s.ports = append(s.ports, p)
	}
	sim.Every(cfg.StatsInterval, cfg.StatsInterval, s.housekeeping)
	return s
}

// span records one lifecycle event for pkt at the current simulated
// time.  It compiles to nothing observable when tracing is disabled:
// the tracer is nil and Record returns immediately.
//
//alloc:free
func (s *Switch) span(pkt *core.Packet, stage obs.Stage, a, b uint64) {
	s.tracer.Record(obs.SpanEvent{
		At: int64(s.sim.Now()), UID: pkt.Meta.UID, Node: s.cfg.ID,
		Stage: stage, A: a, B: b,
	})
}

// ID returns the switch id.
func (s *Switch) ID() uint32 { return s.cfg.ID }

// Ports returns the port count.
func (s *Switch) Ports() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// L3 exposes the LPM table for control-plane configuration.
func (s *Switch) L3() *l3.Table { return s.l3 }

// TCAM exposes the flow table for control-plane configuration.
func (s *Switch) TCAM() *tcam.Table { return s.tcam }

// Allocator exposes the control-plane SRAM allocator.
func (s *Switch) Allocator() *mem.Allocator { return s.alloc }

// SRAM reads scratch word i directly (control-plane access).  An
// out-of-range index reads as zero rather than panicking: debug tooling
// drives this path with untrusted offsets, and a typo must not take the
// simulation down with it.
func (s *Switch) SRAM(i int) uint32 {
	if i < 0 || i >= len(s.sram) {
		return 0
	}
	return s.sram[i]
}

// SetSRAM writes scratch word i directly (control-plane access).
// Out-of-range indexes are a no-op, mirroring SRAM.
func (s *Switch) SetSRAM(i int, v uint32) {
	if i < 0 || i >= len(s.sram) {
		return
	}
	s.sram[i] = v
}

// SetMirror installs the forwarding observer.
func (s *Switch) SetMirror(fn ForwardFunc) { s.mirror = fn }

// SetReflex installs the dataplane failure-reaction hook (nil
// uninstalls it).  The hook runs on every forwarded packet after the
// egress decision and may override it.
func (s *Switch) SetReflex(h ReflexHook) { s.reflex = h }

// InjectLocal enqueues a switch-originated control frame (a reflex
// heartbeat, in practice) directly on egress port out.  The frame is
// firmware output, not transit traffic: it bypasses the lookup
// pipeline, the TCPU and the reflex hook — a heartbeat must probe the
// port it was aimed at even while that port's traffic is detoured.
// Returns false when the switch is mid-boot, the port is unwired, or
// the egress queue dropped the frame.
func (s *Switch) InjectLocal(pkt *core.Packet, out int) bool {
	if s.booting {
		s.dropRebooted(pkt, out)
		return false
	}
	if out < 0 || out >= len(s.ports) || !s.ports[out].Wired() {
		s.blackholes++
		s.m.blackholes.Inc()
		s.span(pkt, obs.StageBlackhole, uint64(out), uint64(out))
		pkt.Recycle()
		return false
	}
	pkt.Meta.OutPort = uint32(out)
	pkt.Meta.QueueID = 0
	pkt.Meta.EnqueuedAt = int64(s.sim.Now())
	return s.ports[out].enqueue(pkt, 0)
}

// SetTCPUEnabled toggles TPP execution on this switch — the fault
// injector's per-switch TCPU kill switch.  While disabled, TPP packets
// forward unmodified (no loads, stores or hop records).
func (s *Switch) SetTCPUEnabled(v bool) { s.tcpuOff = !v }

// TCPUEnabled reports whether this switch executes TPPs.
func (s *Switch) TCPUEnabled() bool { return !s.tcpuOff }

// PacketsSwitched returns the cumulative forwarded-packet count.
func (s *Switch) PacketsSwitched() uint64 { return s.packets }

// CStoreCommits returns how many conditional stores committed (compare
// matched and the store was applied) on this switch.  Like the other
// Go-side counters it survives Reboot — the SRAM words the commits
// landed in do not, which is exactly the discrepancy the in-band
// telemetry reconciliation measures.
func (s *Switch) CStoreCommits() uint64 { return s.cstores }

// TPPsExecuted returns how many TPPs the TCPU has run.
func (s *Switch) TPPsExecuted() uint64 { return s.tppsExecuted }

// TPPsStripped returns how many TPPs were removed at untrusted ports.
func (s *Switch) TPPsStripped() uint64 { return s.tppsStripped }

// TPPsRejected returns how many TPPs the paranoid verifier stripped.
func (s *Switch) TPPsRejected() uint64 { return s.tppsRejected }

// TPPsThrottled returns how many TPPs the admission gate declined to
// execute (their packets forwarded unmodified).
func (s *Switch) TPPsThrottled() uint64 { return s.tppsThrottled }

// Epoch returns the boot generation counter, the value exposed at
// [Switch:Epoch]: zero until the first crash-restart.
func (s *Switch) Epoch() uint32 { return s.epoch }

// Booting reports whether the switch is inside a reboot's boot-delay
// window (eating every arriving frame).
func (s *Switch) Booting() bool { return s.booting }

// Reboots returns how many crash-restarts this switch has suffered.
func (s *Switch) Reboots() uint64 { return s.reboots }

// RebootDrops returns how many packets reboots have eaten: frames
// arriving while the switch was down plus packets wiped mid-pipeline
// or out of the egress queues.
func (s *Switch) RebootDrops() uint64 { return s.rebootDrops }

// Reboot crash-restarts the switch: every queued and in-pipeline
// packet is dropped, scratch SRAM is zeroed, the SRAM allocator is
// reset, learned L2 entries and per-port task scratch are cleared, and
// for bootDelay the switch eats every arriving frame.  The TCAM and L3
// tables survive — they are config, reloaded from NVRAM by the boot —
// so forwarding resumes unaided once the boot delay elapses.  The boot
// generation counter at [Switch:Epoch] increments immediately, which is
// how end-hosts later discover the wipe.
func (s *Switch) Reboot(bootDelay netsim.Time) {
	s.epoch++
	s.booting = true
	s.reboots++
	s.m.reboots.Inc()

	// Wipe soft state.  Flushed queue packets count as reboot drops so
	// packet conservation stays provable across the crash.
	clear(s.sram)
	s.alloc.Reset()
	s.l2.Flush()
	for _, p := range s.ports {
		p.scratch = [mem.PortScratchWords]uint32{}
		p.snr = 0
		port := p.ID()
		for _, q := range p.queues {
			flushed := q.Flush(func(pkt *core.Packet) {
				s.span(pkt, obs.StageRebootDrop, uint64(port), uint64(pkt.WireLen()))
			})
			s.rebootDrops += uint64(flushed)
			s.m.rebootDrops.Add(uint64(flushed))
		}
	}
	// Spin-observer edge tracking is soft state too: the wipe loses
	// which bit was last seen, so the first post-boot packet re-anchors
	// instead of producing a bogus interval.
	for _, w := range s.spin {
		w.reset()
	}
	// The admission gate's buckets are soft state too: boot refills
	// them.  Tenant grants survive — they are config, like the TCAM —
	// and the freshly zeroed SRAM is exactly the blank partition a new
	// grant would get.
	s.tppTokens = float64(s.cfg.TPPBurst)
	s.tppRefillAt = s.sim.Now()
	if s.guard != nil {
		s.guard.ResetBuckets(s.sim.Now())
	}

	s.tracer.Record(obs.SpanEvent{
		At: int64(s.sim.Now()), UID: 0, Node: s.cfg.ID,
		Stage: obs.StageSwitchReboot, A: uint64(s.epoch), B: uint64(bootDelay),
	})

	epoch := s.epoch
	s.sim.After(bootDelay, func() {
		if s.epoch != epoch {
			return // a newer reboot owns the boot timer
		}
		s.booting = false
		s.tracer.Record(obs.SpanEvent{
			At: int64(s.sim.Now()), UID: 0, Node: s.cfg.ID,
			Stage: obs.StageSwitchUp, A: uint64(epoch),
		})
	})
}

// dropRebooted counts and records one packet eaten by a crash-restart.
//
//alloc:free
func (s *Switch) dropRebooted(pkt *core.Packet, port int) {
	s.rebootDrops++
	s.m.rebootDrops.Inc()
	s.span(pkt, obs.StageRebootDrop, uint64(port), uint64(pkt.WireLen()))
	pkt.Recycle()
}

func (s *Switch) housekeeping() {
	for _, p := range s.ports {
		p.tick()
	}
	s.l2.Expire(int64(s.sim.Now()))
}

// Receive implements netsim.Receiver: the packet's last bit arrived on
// port.  The fixed pipeline latency covers the parser and lookup
// stages; forwarding happens after it elapses.
//
//alloc:free
func (s *Switch) Receive(pkt *core.Packet, port int) {
	// A switch mid-boot is electrically absent: frames arriving during
	// the boot delay vanish without any further processing.
	if s.booting {
		s.dropRebooted(pkt, port)
		return
	}
	p := s.ports[port]
	p.rxBytes += uint64(pkt.WireLen())
	s.span(pkt, obs.StageParser, uint64(port), uint64(pkt.WireLen()))

	// §4 security: untrusted edge ports strip TPPs.
	if pkt.TPP != nil && !p.trusted {
		s.span(pkt, obs.StageStrip, uint64(port), 0)
		pkt = stripTPP(pkt)
		s.tppsStripped++
		s.m.tppsStripped.Inc()
		if pkt == nil {
			return // nothing remained to forward
		}
	}

	// Paranoid parser: statically reject programs that would fault or
	// overrun the cycle budget, stripping them before they reach the
	// TCPU.
	if pkt.TPP != nil && s.cfg.Verify != nil {
		if res := verify.Verify(pkt.TPP, *s.cfg.Verify); !res.OK() {
			s.span(pkt, obs.StageVerifyReject, uint64(port), uint64(len(res.Errors())))
			pkt = stripTPP(pkt)
			s.tppsRejected++
			s.m.tppsRejected.Inc()
			if pkt == nil {
				return
			}
		}
	}

	pkt.Meta = core.Metadata{
		UID:        pkt.Meta.UID,
		InPort:     uint32(port),
		EnqueuedAt: int64(s.sim.Now()),
	}
	// Capture the boot epoch: a crash while the packet sits in the
	// parse/lookup pipeline wipes it along with the rest of the
	// switch's volatile state.  The epoch and ingress port ride in the
	// event's arg word (see DeliverAt) so the pipeline stage schedules
	// without allocating.
	s.sim.AtPacket(s.sim.Now()+s.cfg.PipelineLatency, s, pkt,
		uint64(port)|uint64(s.epoch)<<32)
}

// DeliverAt implements netsim.PacketDelivery: the parse/lookup pipeline
// latency elapsed.  arg carries the ingress port in the low word and
// the boot epoch captured at arrival in the high word.
//
//alloc:free
func (s *Switch) DeliverAt(pkt *core.Packet, arg uint64) {
	port := int(uint32(arg))
	if s.booting || s.epoch != uint32(arg>>32) {
		s.dropRebooted(pkt, port)
		return
	}
	s.forward(pkt, port)
}

// stripTPP removes the TPP section, leaving the encapsulated payload as
// an ordinary frame; a bare TPP with no payload vanishes entirely.
// Stripping is a death point for the incoming packet: the survivor is a
// fresh pooled clone without the TPP, and the original is recycled (a
// no-op for host-owned packets, which the sender may still hold).  The
// earlier shallow-copy implementation heap-allocated per strip and
// abandoned the original's pool slot; cloning through the pool keeps
// the strip path allocation-free and leak-free.
//
//alloc:free
func stripTPP(pkt *core.Packet) *core.Packet {
	if pkt.IP == nil {
		pkt.Recycle()
		return nil
	}
	out := pkt.ClonePooled()
	out.TPP = nil
	out.Eth.Type = core.EtherTypeIPv4
	pkt.Recycle()
	return out
}

// forward runs the lookup pipeline and commits the packet to its
// egress queue(s).
//
//alloc:free
func (s *Switch) forward(pkt *core.Packet, inPort int) {
	s.packets++
	s.m.packets.Inc()

	// Lookup precedence mirrors §3.1's pipeline: the TCAM slices see
	// the packet first, then L3 LPM, then the L2 hash table.
	if out, meta, decided := s.lookupTCAM(pkt, inPort); decided {
		s.span(pkt, obs.StageLookupTCAM, uint64(meta.ID), uint64(meta.Version))
		if out < 0 {
			pkt.Recycle()
			return // dropped by rule (its journey ends at the lookup span)
		}
		pkt.Meta.MatchedEntry = meta.ID
		pkt.Meta.MatchedVer = meta.Version
		s.deliver(pkt, inPort, out)
		return
	}

	if pkt.IP != nil && s.l3.Size() > 0 {
		if rt, ok := s.l3.Lookup(pkt.IP.Dst); ok {
			if pkt.IP.TTL <= 1 {
				s.ttlDrops++
				s.m.ttlDrops.Inc()
				s.span(pkt, obs.StageTTLDrop, uint64(inPort), 0)
				pkt.Recycle()
				return
			}
			pkt.IP.TTL--
			s.span(pkt, obs.StageLookupL3, uint64(rt.OutPort), uint64(pkt.IP.TTL))
			s.deliver(pkt, inPort, rt.OutPort)
			return
		}
	}
	s.forwardL2(pkt, inPort)
}

//alloc:free
func (s *Switch) lookupTCAM(pkt *core.Packet, inPort int) (out int, e tcam.Entry, decided bool) {
	if s.tcam.Size() == 0 || pkt.IP == nil {
		return 0, tcam.Entry{}, false
	}
	key := tcam.Key{
		tcam.KeyDstIP:  pkt.IP.Dst,
		tcam.KeySrcIP:  pkt.IP.Src,
		tcam.KeyProto:  uint32(pkt.IP.Proto),
		tcam.KeyInPort: uint32(inPort),
	}
	e, ok := s.tcam.Match(key)
	if !ok {
		return 0, tcam.Entry{}, false
	}
	// Table 2: "alternate routes for a packet" — every installed rule
	// covering this packet is a forwarding alternative.
	pkt.Meta.AltRoutes = uint32(s.tcam.MatchCount(key))
	if e.Action.Drop {
		return -1, e, true
	}
	return e.Action.OutPort, e, true
}

//alloc:free
func (s *Switch) forwardL2(pkt *core.Packet, inPort int) {
	now := int64(s.sim.Now())
	s.l2.Learn(pkt.Eth.Src, inPort, now)
	if !pkt.Eth.Dst.IsBroadcast() {
		if out, ok := s.l2.Lookup(pkt.Eth.Dst, now); ok {
			s.span(pkt, obs.StageLookupL2, uint64(out), 0)
			s.deliver(pkt, inPort, out)
			return
		}
	}
	// Flood: every wired port except the ingress, each copy carrying
	// (and executing) its own TPP.  The last egress forwards the
	// original packet itself; only the other egresses need copies,
	// drawn from the packet pool instead of the heap.
	last := -1
	for _, p := range s.ports {
		if p.id != inPort && p.Wired() {
			last = p.id
		}
	}
	if last < 0 {
		s.blackholes++
		s.m.blackholes.Inc()
		s.span(pkt, obs.StageBlackhole, uint64(inPort), 0)
		pkt.Recycle()
		return
	}
	for _, p := range s.ports {
		if p.id == inPort || !p.Wired() {
			continue
		}
		s.span(pkt, obs.StageLookupL2, uint64(p.id), 1)
		if p.id == last {
			s.deliver(pkt, inPort, p.id)
		} else {
			s.deliver(pkt.ClonePooled(), inPort, p.id)
		}
	}
}

// deliver finalizes metadata, runs the TCPU, and enqueues the packet on
// its egress port.
//
//alloc:free
func (s *Switch) deliver(pkt *core.Packet, inPort, outPort int) {
	// The reflex hook may override the egress decision: when the chosen
	// port's next-hop is dead or persistently congested, the arm fires
	// its CAS-checked TCAM rewrite and re-steers this very packet onto
	// the backup — sub-RTT recovery includes the triggering packet.
	if s.reflex != nil {
		outPort = s.reflex.Transit(pkt, outPort)
	}
	if outPort < 0 || outPort >= len(s.ports) || !s.ports[outPort].Wired() {
		s.blackholes++
		s.m.blackholes.Inc()
		s.span(pkt, obs.StageBlackhole, uint64(inPort), uint64(outPort))
		pkt.Recycle()
		return
	}
	pkt.Meta.OutPort = uint32(outPort)
	pkt.Meta.QueueID = s.classify(pkt)

	if s.mirror != nil {
		s.mirror(pkt, inPort, outPort)
	}

	// Fixed-function dataplane features (§4 comparators).
	if pkt.IP != nil {
		for _, w := range s.spin {
			w.observe(s, pkt)
		}
		if s.cfg.ECNThresholdBytes > 0 && pkt.IP.TOS&core.ECNCapable != 0 &&
			s.ports[outPort].QueueBytes() >= s.cfg.ECNThresholdBytes {
			pkt.IP.TOS |= core.ECNCE
		}
		if s.cfg.RecordRoute && len(pkt.IP.Options) > 0 {
			core.RecordRouteAppend(pkt.IP.Options, s.cfg.ID)
		}
	}

	// "The tiny CPU (TCPU) that processes TPPs is placed just before
	// the packet is stored in memory."  Non-TPP packets are ignored
	// by the TCPU.
	if pkt.TPP != nil && pkt.Eth.Type == core.EtherTypeTPP && !s.tcpuOff {
		if !s.admitTPP(guard.TenantID(pkt.TPP.Tenant)) {
			// Overload protection: out of tokens, so the program does
			// not run here.  The packet forwards unmodified with the
			// hop-visible throttle bit, letting the end-host tell an
			// overloaded TCPU apart from a blackhole.
			pkt.TPP.Flags |= core.FlagThrottled
			s.tppsThrottled++
			s.m.tppsThrottled.Inc()
			s.span(pkt, obs.StageThrottle, uint64(outPort), uint64(inPort))
		} else {
			s.execTPP(pkt, outPort)
		}
	}

	// The memory manager admits the packet into shared buffer memory
	// just after the TCPU; A carries the target queue, B the occupancy
	// it sees before this packet is admitted.
	s.span(pkt, obs.StageMemMgr, uint64(pkt.Meta.QueueID), uint64(s.ports[outPort].QueueBytes()))
	s.ports[outPort].enqueue(pkt, int(pkt.Meta.QueueID))
}

// admitTPP charges the admission gate one token, refilling the bucket
// from the dataplane clock first.  An unconfigured gate admits
// everything.  With the tenant guard on, the aggregate rate is split
// into per-tenant buckets by weighted share, so a flooding tenant
// drains only its own quota; without it, every TPP shares one bucket.
//
//alloc:free
func (s *Switch) admitTPP(id guard.TenantID) bool {
	if s.cfg.TPPRate <= 0 {
		return true
	}
	if s.guard != nil {
		return s.guard.Admit(id, s.sim.Now(), s.cfg.TPPRate)
	}
	now := s.sim.Now()
	if now > s.tppRefillAt {
		s.tppTokens += (now - s.tppRefillAt).Seconds() * s.cfg.TPPRate
		if max := float64(s.cfg.TPPBurst); s.tppTokens > max {
			s.tppTokens = max
		}
	}
	s.tppRefillAt = now
	if s.tppTokens < 1 {
		return false
	}
	s.tppTokens--
	return true
}

// execTPP runs the packet's program on the TCPU and records the
// execution telemetry.  With the tenant guard on, the memory view is
// wrapped with the tenant's grant: denied accesses fail forward (poison
// loads, dropped stores) and surface as FlagAccessFault on the program.
//
// The memory views live in per-switch scratch (the dataplane processes
// one event at a time, so one view per switch suffices).
//
//alloc:free
func (s *Switch) execTPP(pkt *core.Packet, outPort int) {
	s.execView = view{sw: s, pkt: pkt, port: s.ports[outPort]}
	var v interface {
		mem.View
		CondStore(mem.Addr, uint32, uint32) (uint32, error)
	} = &s.execView
	var gv *guardedView
	if s.guard != nil {
		g, _ := s.guard.Lookup(guard.TenantID(pkt.TPP.Tenant)) // unknown: zero grant, deny-all
		s.execGuard = guardedView{v: &s.execView, grant: g, tenant: guard.TenantID(pkt.TPP.Tenant)}
		gv = &s.execGuard
		v = gv
	}
	s.LastTCPU = s.cfg.TCPU.Exec(pkt.TPP, v)
	if gv != nil && gv.denies > 0 {
		pkt.TPP.Flags |= core.FlagAccessFault
	}
	s.tppsExecuted++
	s.m.tpps.Inc()
	s.m.tcpuCycles.Observe(uint64(s.LastTCPU.Cycles))
	if s.LastTCPU.Fault != nil {
		s.m.tppFaults.Inc()
	}
	if !s.LastTCPU.WithinBudget() {
		s.m.tppOverBudget.Inc()
	}
	s.span(pkt, obs.StageTCPU, uint64(s.LastTCPU.Cycles), uint64(s.LastTCPU.Executed))
}

// classify selects the egress queue: the top three TOS bits, clamped to
// the configured queue count (everything defaults to queue 0).
//
//alloc:free
func (s *Switch) classify(pkt *core.Packet) uint32 {
	if pkt.IP == nil || s.cfg.QueuesPerPort == 1 {
		return 0
	}
	q := int(pkt.IP.TOS >> 5)
	if q >= s.cfg.QueuesPerPort {
		q = s.cfg.QueuesPerPort - 1
	}
	return uint32(q)
}

// Wire connects port i to ch (the egress direction).  Panics on an
// invalid port: mis-wiring is a topology construction bug.
func (s *Switch) Wire(i int, ch *netsim.Channel) {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("asic: wiring invalid port %d", i))
	}
	s.ports[i].Wire(ch)
}
