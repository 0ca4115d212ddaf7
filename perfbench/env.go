package main

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/reflex"
	"repro/internal/topo"
)

// env is one episode's simulated network: a fresh simulator, the
// switches, hosts and links the benchmark built, and the handles it
// reads counts from.
type env struct {
	sim      *netsim.Sim
	net      *topo.Network
	switches []*asic.Switch
	hosts    []*endhost.Host
	channels []*netsim.Channel
	shims    []*shim
	probers  []*endhost.Prober
	arms     []*reflex.Arm
	reg      *obs.Registry // traced run only
	tr       *tracer       // traced run only

	// measuredFrom/measuredTo bound the measured slices in simulated
	// time; quiet is the later instant at which the network holds no
	// frame, where the count reconciliation runs.
	measuredFrom, measuredTo, quiet netsim.Time
	slice                           netsim.Time

	// check runs at quiet and returns one message per failed
	// correctness condition; it also folds the episode's outcome into
	// digest.
	check  func() []string
	digest fnv

	// Per-episode extras the traced run reports.
	applyMs                   float64
	mutations, convergeRounds uint64
	cstoreAttempts            uint64
}

func newEnv(seed int64, tr *tracer) *env {
	sim := netsim.New(seed)
	e := &env{sim: sim, net: topo.NewNetwork(sim), tr: tr, digest: newFNV()}
	if tr != nil {
		e.reg = obs.NewRegistry()
	}
	return e
}

func (e *env) addSwitch(cfg asic.Config) *asic.Switch {
	cfg.Metrics = e.reg
	sw := e.net.AddSwitch(cfg)
	e.switches = append(e.switches, sw)
	return sw
}

func (e *env) addHost() *endhost.Host {
	h := e.net.AddHost()
	e.hosts = append(e.hosts, h)
	return h
}

// channel builds one link direction delivering to dst's port.  The
// traced run puts a timing shim in front of dst; the untraced run
// wires dst directly, so the two simulate exactly the same network.
func (e *env) channel(spec topo.LinkSpec, dst netsim.Receiver, port int, b boundary) *netsim.Channel {
	var r netsim.Receiver = dst
	var s *shim
	if e.tr != nil {
		s = &shim{dst: dst, tr: e.tr, b: b}
		e.shims = append(e.shims, s)
		r = s
	}
	ch := netsim.NewChannel(e.sim, spec.RateBps, spec.Delay, r, port)
	if s != nil {
		s.ch = ch
	}
	e.channels = append(e.channels, ch)
	return ch
}

// linkSwitches wires a full-duplex link between port ap of a and port
// bp of b.
func (e *env) linkSwitches(a *asic.Switch, ap int, b *asic.Switch, bp int, spec topo.LinkSpec) {
	a.Wire(ap, e.channel(spec, b, bp, bSwitchRx))
	b.Wire(bp, e.channel(spec, a, ap, bSwitchRx))
}

// linkHost wires host h to port p of sw.
func (e *env) linkHost(h *endhost.Host, sw *asic.Switch, p int, spec topo.LinkSpec) {
	h.NIC.Attach(e.channel(spec, sw, p, bSwitchRx))
	sw.Wire(p, e.channel(spec, h, 0, bHostRx))
}

func (e *env) newProber(h *endhost.Host) *endhost.Prober {
	p := endhost.NewProber(h)
	e.probers = append(e.probers, p)
	return p
}

// counts are an episode's simulated statistics, read from public
// counters.  Simulation is deterministic, so two runs of one episode
// seed — replayed, or traced against untraced — must agree on every
// field.
type counts struct {
	SimNs                                int64
	Hops, Execs, CStores                 uint64
	Throttled, Denied                    uint64
	LinkTx, LinkLost, LinkDown           uint64
	NICSent, NICDrops, NICQueued         uint64
	Delivered, Injected                  uint64
	QueueEnq, QueueDeq, QueueDrops       uint64
	QueueFlushed, QueueLen               uint64
	RebootDrops, Reboots                 uint64
	ProbesSent, ProbesMatched, ProbeRetx uint64
	Fires, Reverts, Heartbeats           uint64
	TCAMEntries                          uint64
	Digest                               uint64
}

func (e *env) counts() counts {
	c := counts{SimNs: int64(e.sim.Now()), Digest: uint64(e.digest)}
	for _, sw := range e.switches {
		c.Hops += sw.PacketsSwitched()
		c.Execs += sw.TPPsExecuted()
		c.CStores += sw.CStoreCommits()
		c.Throttled += sw.TPPsThrottled()
		c.Denied += sw.TPPsDenied()
		c.RebootDrops += sw.RebootDrops()
		c.Reboots += sw.Reboots()
		c.TCAMEntries += uint64(sw.TCAM().Size())
		for p := 0; p < sw.Ports(); p++ {
			port := sw.Port(p)
			for q := 0; q < port.Queues(); q++ {
				qu := port.Queue(q)
				c.QueueEnq += qu.EnqPkts
				c.QueueDeq += qu.DeqPkts
				c.QueueDrops += qu.DropPkts
				c.QueueFlushed += qu.FlushedPkts
				c.QueueLen += uint64(qu.Len())
			}
		}
	}
	for _, ch := range e.channels {
		c.LinkTx += ch.PacketsSent
		c.LinkLost += ch.PacketsLost
		c.LinkDown += ch.PacketsDownDrops
	}
	for _, h := range e.hosts {
		c.NICSent += h.NIC.Sent
		c.NICDrops += h.NIC.Drops
		c.NICQueued += uint64(h.NIC.QueueLen())
		c.Delivered += h.Received + h.EchoesSent
	}
	for _, p := range e.probers {
		c.ProbesSent += p.Sent
		c.ProbesMatched += p.Matched
		c.ProbeRetx += p.Retransmits
	}
	for _, a := range e.arms {
		c.Fires += a.Fires()
		c.Reverts += a.Reverts()
		c.Heartbeats += a.ProbesSent()
	}
	c.Injected = c.Heartbeats
	return c
}

// sub returns the counts accumulated since o.  Occupancies (queued
// frames), table sizes and the digest are states, not totals: they
// keep c's value.
func (c counts) sub(o counts) counts {
	return counts{
		SimNs: c.SimNs - o.SimNs,
		Hops:  c.Hops - o.Hops, Execs: c.Execs - o.Execs, CStores: c.CStores - o.CStores,
		Throttled: c.Throttled - o.Throttled, Denied: c.Denied - o.Denied,
		LinkTx: c.LinkTx - o.LinkTx, LinkLost: c.LinkLost - o.LinkLost, LinkDown: c.LinkDown - o.LinkDown,
		NICSent: c.NICSent - o.NICSent, NICDrops: c.NICDrops - o.NICDrops, NICQueued: c.NICQueued,
		Delivered: c.Delivered - o.Delivered, Injected: c.Injected - o.Injected,
		QueueEnq: c.QueueEnq - o.QueueEnq, QueueDeq: c.QueueDeq - o.QueueDeq,
		QueueDrops: c.QueueDrops - o.QueueDrops, QueueFlushed: c.QueueFlushed - o.QueueFlushed,
		QueueLen:    c.QueueLen,
		RebootDrops: c.RebootDrops - o.RebootDrops, Reboots: c.Reboots - o.Reboots,
		ProbesSent: c.ProbesSent - o.ProbesSent, ProbesMatched: c.ProbesMatched - o.ProbesMatched,
		ProbeRetx: c.ProbeRetx - o.ProbeRetx,
		Fires:     c.Fires - o.Fires, Reverts: c.Reverts - o.Reverts, Heartbeats: c.Heartbeats - o.Heartbeats,
		TCAMEntries: c.TCAMEntries, Digest: c.Digest,
	}
}

// reconcile checks frame conservation across layers over the
// measured window d (counts at quiet minus counts at measuredFrom,
// both instants at which the network holds no frame).  ttlBlackhole is
// the registry's TTL-drop plus blackhole count in the traced run and
// -1 in the untraced run, which has no registry.  None of the
// workloads may lose a frame to TTL, blackhole or TCAM drop rule, so
// both residuals below must be zero, which also proves there were
// none where no counter exists.
func (e *env) reconcile(d counts, ttlBlackhole int64) []string {
	var bad []string
	if d.QueueLen != 0 || d.NICQueued != 0 {
		bad = append(bad, fmt.Sprintf("network not quiet at check: %d queued at switches, %d at NICs", d.QueueLen, d.NICQueued))
	}
	for _, ch := range e.channels {
		if ch.Busy() {
			bad = append(bad, "network not quiet at check: a link is transmitting")
			break
		}
	}
	// Every frame offered to the network (host NIC sends plus frames
	// switches inject) ends delivered or in one counted drop kind.
	in := int64(d.NICSent + d.Injected)
	out := int64(d.Delivered + d.LinkLost + d.LinkDown + d.QueueDrops + d.RebootDrops)
	if in != out {
		bad = append(bad, fmt.Sprintf("frames offered %d != delivered plus counted drops %d", in, out))
	}
	// Every forwarding decision (hop) and injection is enqueued or
	// tail-dropped.
	if enq := d.QueueEnq + d.QueueDrops; d.Hops+d.Injected != enq {
		bad = append(bad, fmt.Sprintf("hops+injected %d != enqueued+tail-dropped %d", d.Hops+d.Injected, enq))
	}
	if ttlBlackhole > 0 {
		bad = append(bad, fmt.Sprintf("%d TTL or blackhole drops", ttlBlackhole))
	}
	// Every frame a link carried left a NIC or a switch queue.
	if d.LinkTx != d.NICSent+d.QueueDeq {
		bad = append(bad, fmt.Sprintf("link tx %d != NIC sends %d + queue dequeues %d", d.LinkTx, d.NICSent, d.QueueDeq))
	}
	if d.QueueEnq != d.QueueDeq+d.QueueFlushed {
		bad = append(bad, fmt.Sprintf("queue enq %d != deq %d + flushed %d", d.QueueEnq, d.QueueDeq, d.QueueFlushed))
	}
	// Traced run: each link delivered exactly what it carried and did
	// not lose.
	for _, s := range e.shims {
		if want := s.ch.PacketsSent - s.ch.PacketsLost - s.ch.PacketsDownDrops; s.arrivals != want {
			bad = append(bad, fmt.Sprintf("a link delivered %d frames, its counters say %d", s.arrivals, want))
			break
		}
	}
	return bad
}

// ttlBlackholes sums the registry's TTL-drop and blackhole counters.
func (e *env) ttlBlackholes() int64 {
	if e.reg == nil {
		return -1
	}
	var n uint64
	for _, sw := range e.switches {
		n += e.reg.Counter(fmt.Sprintf("switch/%d/ttl_drops", sw.ID())).Value()
		n += e.reg.Counter(fmt.Sprintf("switch/%d/blackholes", sw.ID())).Value()
	}
	return int64(n)
}
