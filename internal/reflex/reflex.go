// Package reflex is the dataplane failure-reaction plane: sub-RTT
// fast-reroute driven entirely by in-band evidence, without waiting for
// the central controller's control loop.
//
// Each armed switch maintains per-egress liveness evidence in its own
// SRAM statistics region: a heartbeat echo counter written by small
// round-trip TPPs the arm injects out every monitored egress, and a
// queue-depth EWMA refreshed on every transit packet.  The heartbeat
// TPP is CEXEC-gated on [Switch:SwitchID], so its STORE commits only
// when the packet has made it out the monitored egress and *back* to
// its home switch — a round trip that proves the egress direction
// works, which unidirectional (gray) failures cannot fake.
//
// When the evidence says an egress is dead (heartbeat echoes stopped)
// or persistently congested (EWMA above threshold past a dwell), the
// reflex fires: a version-checked TCAM rewrite (compare-and-swap
// against the entry version captured at arming time) steers the
// affected prefix onto a precomputed loop-free backup next-hop.  The
// write discipline keeps the reflex safe against every concurrent
// writer:
//
//   - CAS against the captured version means a reflex never clobbers a
//     controller write it has not seen; a lost race marks the backup
//     stale and the reflex stands down until the operator re-arms.
//   - Only pre-authorized (prefix, primary, backup) triples are ever
//     installed, and a per-switch budget bounds how many detours can
//     stand at once — the blast radius of a wrong reflex is capped.
//   - A minimum dwell before revert (flap damping) keeps bursty
//     Gilbert-Elliott loss from oscillating routes.
//   - Evidence lives in the operator SRAM band: on a guarded switch,
//     tenant TPPs address memory partition-relative and cannot reach
//     it, so only operator-namespace TPPs can feed (or forge) the
//     evidence that arms reflexes.
//
// The fabric controller reconciles standing detours instead of fighting
// them: Arm implements fabric.DetourSource, so a reflex rewrite shows
// up in a fabric diff as an informational detour op, to be ratified
// into spec or restored once the link heals.
package reflex

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tcam"
)

// HeartbeatPort is the UDP port reflex heartbeats ride on, distinct
// from the prober's echo ports so reflector sinks can tell them apart.
const HeartbeatPort = 7077

// evidenceTask names the arm's SRAM allocation: two words per port
// (heartbeat echo, queue-depth EWMA).
const evidenceTask = "reflex/evidence"

// Config tunes one switch's reflex arm.  Zero values take defaults.
type Config struct {
	// HeartbeatEvery is the per-monitor heartbeat injection period
	// (default 50µs).
	HeartbeatEvery netsim.Time
	// DeadAfter is the heartbeat lag (sent minus echoed sequence)
	// beyond which the egress is declared dead (default 4).  It must
	// exceed the steady-state lag, which is the heartbeat round-trip
	// divided by HeartbeatEvery, plus the burst of loss the operator
	// wants ridden out.
	DeadAfter uint32
	// EWMAShift is the queue-depth EWMA gain: new = old + (sample-old)
	// >> shift (default 2).
	EWMAShift uint
	// CongestBytes arms the congestion reflex: an egress whose EWMA
	// stays at or above this many queued bytes for CongestDwell is
	// treated like a dead one.  0 (the default) disables it.
	CongestBytes uint32
	// CongestDwell is how long the EWMA must stay above CongestBytes
	// before the congestion reflex may fire (default 10 heartbeats).
	CongestDwell netsim.Time
	// RevertDwell is the flap damping: the minimum time a detour
	// stands before healthy evidence may revert it (default 20
	// heartbeats).
	RevertDwell netsim.Time
	// Budget caps how many detours may stand at once on this switch
	// (default 1).
	Budget int

	Metrics *obs.Registry
	Trace   *obs.Tracer
}

func (c Config) resolve() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * netsim.Microsecond
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 4
	}
	if c.EWMAShift == 0 {
		c.EWMAShift = 2
	}
	if c.CongestDwell <= 0 {
		c.CongestDwell = 10 * c.HeartbeatEvery
	}
	if c.RevertDwell <= 0 {
		c.RevertDwell = 20 * c.HeartbeatEvery
	}
	if c.Budget <= 0 {
		c.Budget = 1
	}
	return c
}

// backup states.
const (
	stateArmed = iota
	stateDetoured
	stateStale
)

// monitor is one watched egress port.
type monitor struct {
	port   int
	dstMAC core.MAC
	dstIP  uint32
	sent   uint32 // heartbeat sequence last injected
	// congestion bookkeeping (derived from the EWMA evidence word)
	congested      bool
	congestedSince netsim.Time
	ticker         *netsim.Ticker
}

// backup is one pre-authorized (prefix, primary, backup) triple with
// the TCAM entry it is armed against.
type backup struct {
	name        string
	dstIP       uint32
	primaryPort int
	backupPort  int
	entryID     uint32
	version     uint32 // expected entry version for the next CAS
	priority    int    // absolute TCAM priority of the armed entry
	state       int
	since       netsim.Time // when the standing detour fired
}

type armMetrics struct {
	fires, reverts, stale, budget, probes *obs.Counter
}

// Arm is one switch's reflex plane.  It implements asic.ReflexHook (the
// per-packet transit check) and fabric.DetourSource (detour reporting
// to the controller's diff).
type Arm struct {
	sim *netsim.Sim
	sw  *asic.Switch
	cfg Config

	region mem.Region
	base   int    // SRAM index of region.Base
	epoch  uint32 // boot epoch the evidence is anchored to

	monitors []*monitor // indexed by port; nil = unmonitored
	backups  []*backup  // authorization order
	byDst    map[uint32]*backup

	active int // standing detours
	uid    uint64

	fires, reverts, stale, budgetRefused, probesSent uint64

	m armMetrics
}

// Attach builds a reflex arm on sw, allocates its SRAM evidence region
// and installs it as the switch's transit hook.
func Attach(sim *netsim.Sim, sw *asic.Switch, cfg Config) (*Arm, error) {
	a := &Arm{
		sim:      sim,
		sw:       sw,
		cfg:      cfg.resolve(),
		monitors: make([]*monitor, sw.Ports()),
		byDst:    make(map[uint32]*backup),
	}
	a.m = armMetrics{
		fires:   a.cfg.Metrics.Counter(fmt.Sprintf("switch/%d/reflex_fires", sw.ID())),
		reverts: a.cfg.Metrics.Counter(fmt.Sprintf("switch/%d/reflex_reverts", sw.ID())),
		stale:   a.cfg.Metrics.Counter(fmt.Sprintf("switch/%d/reflex_stale", sw.ID())),
		budget:  a.cfg.Metrics.Counter(fmt.Sprintf("switch/%d/reflex_budget_refused", sw.ID())),
		probes:  a.cfg.Metrics.Counter(fmt.Sprintf("switch/%d/reflex_probes", sw.ID())),
	}
	if err := a.rebase(); err != nil {
		return nil, err
	}
	sw.SetReflex(a)
	return a, nil
}

// rebase (re-)anchors the evidence to the switch's current boot epoch:
// allocate the SRAM region (a crash-restart resets the allocator and
// zeroes SRAM), reset heartbeat bookkeeping so the arm fails open
// until fresh evidence accumulates, and re-capture every armed entry's
// live version (the TCAM survives a reboot, but a controller may have
// rewritten entries while the evidence was dark).
func (a *Arm) rebase() error {
	reg, err := a.sw.Allocator().Alloc(evidenceTask, 2*a.sw.Ports())
	if err != nil {
		return fmt.Errorf("reflex: evidence alloc: %w", err)
	}
	a.region = reg
	a.base = mem.SRAMIndex(reg.Base)
	a.epoch = a.sw.Epoch()
	for _, m := range a.monitors {
		if m != nil {
			m.sent = 0
			m.congested = false
		}
	}
	for _, b := range a.backups {
		a.recapture(b)
	}
	a.recount()
	return nil
}

// recapture re-reads one backup's armed entry and re-derives its state
// from the live action.
func (a *Arm) recapture(b *backup) {
	e, ok := a.sw.TCAM().Get(b.entryID)
	if !ok {
		b.state = stateStale
		return
	}
	b.version = e.Version
	b.priority = e.Priority
	switch {
	case !e.Action.Drop && e.Action.OutPort == b.backupPort:
		b.state = stateDetoured
		if b.since == 0 {
			b.since = a.sim.Now()
		}
	case !e.Action.Drop && e.Action.OutPort == b.primaryPort:
		b.state = stateArmed
		b.since = 0
	default:
		b.state = stateStale
	}
}

func (a *Arm) recount() {
	n := 0
	for _, b := range a.backups {
		if b.state == stateDetoured {
			n++
		}
	}
	a.active = n
}

// Monitor arms liveness tracking for one egress port.  dstMAC/dstIP
// name the reflector: a destination routed *out this port* at this
// switch, back toward this switch at the far end, and into a sink
// here, so the heartbeat's round trip exercises exactly the monitored
// egress direction and its return path.
func (a *Arm) Monitor(port int, dstMAC core.MAC, dstIP uint32) error {
	if port < 0 || port >= len(a.monitors) {
		return fmt.Errorf("reflex: no port %d", port)
	}
	if a.monitors[port] != nil {
		return fmt.Errorf("reflex: port %d already monitored", port)
	}
	m := &monitor{port: port, dstMAC: dstMAC, dstIP: dstIP}
	a.monitors[port] = m
	// Stagger the first tick by port so co-armed monitors never burst
	// heartbeats in the same event.
	start := a.sim.Now() + a.cfg.HeartbeatEvery + netsim.Time(port)*netsim.Microsecond
	m.ticker = a.sim.Every(start, a.cfg.HeartbeatEvery, func() { a.tick(m) })
	return nil
}

// Authorize pre-installs one reroute the reflex may perform: steer
// dstIP from primaryPort onto backupPort.  The live TCAM entry routing
// dstIP via primaryPort is captured (id and version) as the only entry
// the reflex will ever rewrite; the caller vouches that backupPort is
// loop-free for this prefix.  The primary port must already be
// monitored — evidence is what pulls the trigger.
func (a *Arm) Authorize(name string, dstIP uint32, primaryPort, backupPort int) error {
	if primaryPort < 0 || primaryPort >= len(a.monitors) || a.monitors[primaryPort] == nil {
		return fmt.Errorf("reflex: primary port %d not monitored", primaryPort)
	}
	if backupPort == primaryPort {
		return fmt.Errorf("reflex: backup must differ from primary port %d", primaryPort)
	}
	if backupPort < 0 || backupPort >= a.sw.Ports() || !a.sw.Port(backupPort).Wired() {
		return fmt.Errorf("reflex: backup port %d not wired", backupPort)
	}
	if _, dup := a.byDst[dstIP]; dup {
		return fmt.Errorf("reflex: dst %08x already authorized", dstIP)
	}
	b := &backup{name: name, dstIP: dstIP, primaryPort: primaryPort, backupPort: backupPort}
	entry, ok := a.findEntry(dstIP, primaryPort)
	if !ok {
		return fmt.Errorf("reflex: no TCAM entry routes %08x via port %d", dstIP, primaryPort)
	}
	b.entryID, b.version, b.priority = entry.ID, entry.Version, entry.Priority
	a.backups = append(a.backups, b)
	a.byDst[dstIP] = b
	return nil
}

// findEntry locates the highest-priority exact-match entry steering
// dstIP out port.  Entries() is priority-descending, so the first hit
// is the one the lookup pipeline would use.
func (a *Arm) findEntry(dstIP uint32, port int) (tcam.Entry, bool) {
	for _, e := range a.sw.TCAM().Entries() {
		if e.Mask[tcam.KeyDstIP] == tcam.ExactMask && e.Value[tcam.KeyDstIP] == dstIP &&
			!e.Action.Drop && e.Action.OutPort == port {
			return e, true
		}
	}
	return tcam.Entry{}, false
}

func (a *Arm) hbIdx(port int) int   { return a.base + 2*port }
func (a *Arm) ewmaIdx(port int) int { return a.base + 2*port + 1 }

// tick is one monitor's heartbeat: refresh the queue evidence, inject
// the round-trip TPP, and run the dead/congested and revert checks that
// don't need a transit packet.
func (a *Arm) tick(m *monitor) {
	if a.sw.Booting() {
		return
	}
	if a.sw.Epoch() != a.epoch {
		if a.rebase() != nil {
			return
		}
	}
	now := a.sim.Now()
	a.updateEWMA(m, now)
	m.sent++
	a.probesSent++
	a.m.probes.Inc()
	a.sw.InjectLocal(a.heartbeat(m), m.port)

	if a.evidenceBad(m, now) {
		// Fire without waiting for a transit packet, so recovery is
		// bounded by the heartbeat period even on idle prefixes.
		for _, b := range a.backups {
			if b.primaryPort == m.port && b.state == stateArmed {
				a.fire(b, 0, now)
			}
		}
		return
	}
	a.checkRevert(m, now)
}

// heartbeat builds the round-trip liveness TPP: CEXEC gates the STORE
// on [Switch:SwitchID] == this switch, so the sequence number lands in
// the evidence word only when the packet has returned home — one full
// traversal of the monitored egress direction.  InjectLocal bypasses
// the local TCPU on the way out; the reflector routes the packet back.
func (a *Arm) heartbeat(m *monitor) *core.Packet {
	t := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
		{Op: core.OpSTORE, A: uint16(a.region.Base) + uint16(2*m.port), B: 2},
	}, 3)
	t.SetWord(0, ^uint32(0)) // CEXEC mask: compare the full ID word
	t.SetWord(1, a.sw.ID())  // CEXEC operand: home switch id
	t.SetWord(2, m.sent)     // STORE operand: heartbeat sequence
	a.uid++
	pkt := core.NewUDPPacket(
		core.Ethernet{Dst: m.dstMAC, Src: a.srcMAC(), Type: core.EtherTypeTPP},
		core.IPv4{TTL: 8, Proto: core.ProtoUDP, Dst: m.dstIP},
		core.UDP{SrcPort: HeartbeatPort, DstPort: HeartbeatPort},
	)
	pkt.TPP = t
	pkt.Meta.UID = (uint64(0xA50000|a.sw.ID()) << 40) | a.uid
	return pkt
}

// srcMAC is the arm's locally-administered source MAC, distinct per
// switch so heartbeats never fight host entries in L2 learning.
func (a *Arm) srcMAC() core.MAC {
	id := a.sw.ID()
	return core.MAC{0x06, 0x5F, 0x00, byte(id >> 16), byte(id >> 8), byte(id)}
}

// updateEWMA folds the egress queue depth into the evidence word and
// tracks the congestion dwell.  Called from both the heartbeat tick and
// the per-packet transit path, so the annotation is load-bearing.
//
//alloc:free
func (a *Arm) updateEWMA(m *monitor, now netsim.Time) {
	idx := a.ewmaIdx(m.port)
	q := uint32(a.sw.Port(m.port).QueueBytes())
	e := a.sw.SRAM(idx)
	e = uint32(int32(e) + ((int32(q) - int32(e)) >> a.cfg.EWMAShift))
	a.sw.SetSRAM(idx, e)
	if a.cfg.CongestBytes == 0 {
		return
	}
	if e >= a.cfg.CongestBytes {
		if !m.congested {
			m.congested = true
			m.congestedSince = now
		}
	} else {
		m.congested = false
	}
}

// evidenceBad reports whether the monitored egress is dead (heartbeat
// echoes stopped) or persistently congested.
//
//alloc:free
func (a *Arm) evidenceBad(m *monitor, now netsim.Time) bool {
	if m.sent-a.sw.SRAM(a.hbIdx(m.port)) > a.cfg.DeadAfter {
		return true
	}
	return m.congested && now-m.congestedSince >= a.cfg.CongestDwell
}

// Transit is the asic.ReflexHook: called by the egress pipeline with
// every packet's selected output port, it refreshes queue evidence and
// — when the evidence is bad and a pre-authorized backup exists for the
// packet's destination — fires the reroute, steering this very packet
// onto the backup.  The healthy path is allocation-free.
//
//alloc:free
func (a *Arm) Transit(pkt *core.Packet, out int) int {
	if out < 0 || out >= len(a.monitors) {
		return out
	}
	m := a.monitors[out]
	if m == nil || pkt.IP == nil {
		return out
	}
	if a.sw.Epoch() != a.epoch {
		// Evidence predates a crash-restart; stand down until the next
		// heartbeat tick rebases it.
		return out
	}
	now := a.sim.Now()
	a.updateEWMA(m, now)
	if !a.evidenceBad(m, now) {
		return out
	}
	b := a.byDst[pkt.IP.Dst]
	if b == nil || b.primaryPort != out || b.state != stateArmed {
		return out
	}
	return a.fire(b, pkt.Meta.UID, now)
}

// fire performs the guarded rewrite: budget check, then a CAS against
// the version captured at arming.  A lost race means another writer
// (controller, operator) touched the route since we last looked — the
// reflex stands down (stale) rather than overwrite unseen state.
func (a *Arm) fire(b *backup, uid uint64, now netsim.Time) int {
	if a.active >= a.cfg.Budget {
		a.budgetRefused++
		a.m.budget.Inc()
		a.span(uid, obs.StageReflexStale, uint64(b.entryID), 2)
		return b.primaryPort
	}
	if err := a.sw.TCAM().UpdateIfVersion(b.entryID, b.version, tcam.Action{OutPort: b.backupPort}); err != nil {
		b.state = stateStale
		a.stale++
		a.m.stale.Inc()
		a.span(uid, obs.StageReflexStale, uint64(b.entryID), 1)
		return b.primaryPort
	}
	b.version++
	b.state = stateDetoured
	b.since = now
	a.active++
	a.fires++
	a.m.fires.Inc()
	a.span(uid, obs.StageReflexFire, uint64(b.entryID), uint64(b.backupPort))
	return b.backupPort
}

// checkRevert restores primaries whose evidence is healthy again and
// whose flap-damping dwell has elapsed.  The revert is CAS-guarded like
// the fire: a raced version means someone else owns the route now.
func (a *Arm) checkRevert(m *monitor, now netsim.Time) {
	for _, b := range a.backups {
		if b.primaryPort != m.port || b.state != stateDetoured {
			continue
		}
		if now-b.since < a.cfg.RevertDwell {
			continue
		}
		if err := a.sw.TCAM().UpdateIfVersion(b.entryID, b.version, tcam.Action{OutPort: b.primaryPort}); err != nil {
			b.state = stateStale
			a.stale++
			a.m.stale.Inc()
			a.span(0, obs.StageReflexStale, uint64(b.entryID), 1)
			a.recount()
			continue
		}
		b.version++
		b.state = stateArmed
		b.since = 0
		a.active--
		a.reverts++
		a.m.reverts.Inc()
		a.span(0, obs.StageReflexRevert, uint64(b.entryID), uint64(b.primaryPort))
	}
}

func (a *Arm) span(uid uint64, st obs.Stage, x, y uint64) {
	a.cfg.Trace.Record(obs.SpanEvent{
		At: int64(a.sim.Now()), UID: uid, Node: a.sw.ID(), Stage: st, A: x, B: y,
	})
}

// Rearm re-reads every authorized entry and re-derives the arm's view
// from the live table.  The operator calls it after controller writes
// it sanctioned (a converge, a ratification) so stale backups come back
// into service against the new versions.
func (a *Arm) Rearm() {
	for _, b := range a.backups {
		a.recapture(b)
	}
	a.recount()
}

// Promote makes a ratified detour's backup the new primary: after the
// operator folds the detour into spec (fabric.Ratify + Converge), the
// live action IS the declared route, so the arm flips its triple and
// re-arms watching for the old primary's return path to be authorized
// again later.  The new primary port must already be monitored.
func (a *Arm) Promote(name string) error {
	for _, b := range a.backups {
		if b.name != name {
			continue
		}
		if b.state != stateDetoured {
			return fmt.Errorf("reflex: %s is not detoured", name)
		}
		if a.monitors[b.backupPort] == nil {
			return fmt.Errorf("reflex: new primary port %d not monitored", b.backupPort)
		}
		b.primaryPort, b.backupPort = b.backupPort, b.primaryPort
		b.state = stateArmed
		b.since = 0
		a.recapture(b)
		a.recount()
		return nil
	}
	return fmt.Errorf("reflex: no authorization %q", name)
}

// ActiveDetours implements fabric.DetourSource: the standing detours on
// band-managed entries, in authorization order.
func (a *Arm) ActiveDetours() []fabric.Detour {
	var out []fabric.Detour
	for _, b := range a.backups {
		if b.state != stateDetoured {
			continue
		}
		if b.priority < fabric.BandBase || b.priority >= fabric.BandBase+fabric.BandSize {
			continue // outside the controller band: invisible to fabric
		}
		out = append(out, fabric.Detour{
			EntryID:     b.entryID,
			Version:     b.version,
			DstIP:       b.dstIP,
			Priority:    b.priority - fabric.BandBase,
			PrimaryPort: b.primaryPort,
			BackupPort:  b.backupPort,
			Since:       b.since,
		})
	}
	return out
}

// Evidence returns one monitored port's raw SRAM evidence words.
func (a *Arm) Evidence(port int) (hbEcho, queueEWMA uint32) {
	return a.sw.SRAM(a.hbIdx(port)), a.sw.SRAM(a.ewmaIdx(port))
}

// Lag returns how many heartbeats the port's echo trails the send
// counter — the arm's deadness measure.
func (a *Arm) Lag(port int) uint32 {
	m := a.monitors[port]
	if m == nil {
		return 0
	}
	return m.sent - a.sw.SRAM(a.hbIdx(port))
}

// Detoured reports whether the named authorization currently stands
// detoured.
func (a *Arm) Detoured(name string) bool {
	for _, b := range a.backups {
		if b.name == name {
			return b.state == stateDetoured
		}
	}
	return false
}

// Stale reports whether the named authorization lost a CAS race and
// stands down awaiting Rearm.
func (a *Arm) Stale(name string) bool {
	for _, b := range a.backups {
		if b.name == name {
			return b.state == stateStale
		}
	}
	return false
}

// EntryOf returns the TCAM entry id the named authorization is armed
// against.
func (a *Arm) EntryOf(name string) (uint32, bool) {
	for _, b := range a.backups {
		if b.name == name {
			return b.entryID, true
		}
	}
	return 0, false
}

// Counters: lifetime totals, mirrored in the metrics registry.
func (a *Arm) Fires() uint64         { return a.fires }
func (a *Arm) Reverts() uint64       { return a.reverts }
func (a *Arm) StaleWrites() uint64   { return a.stale }
func (a *Arm) BudgetRefused() uint64 { return a.budgetRefused }
func (a *Arm) ProbesSent() uint64    { return a.probesSent }
