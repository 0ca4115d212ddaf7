// Package accounting makes §2.2's consistency discussion concrete:
// "With multiple concurrent writers to a shared switch memory, one
// might wonder if there could be race conditions ... While this is a
// legitimate concern for network tasks such as accounting ... we
// support a conditional store instruction to provide a stronger
// (linearizable) notion of consistency for memory updates."
//
// A Counter is a shared 32-bit tally in switch SRAM that multiple
// end-hosts increment concurrently through the network.  Two update
// protocols are provided:
//
//   - Atomic: optimistic concurrency over CSTORE — read the counter
//     with one TPP, then attempt CSTORE(old, old+n) with another,
//     retrying when a concurrent writer got there first.  No update is
//     ever lost.
//   - Racy: the naive LOAD-then-STORE pair.  Interleaved writers
//     overwrite each other and updates vanish — the failure mode the
//     CSTORE instruction exists to prevent.
package accounting

import (
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/tcpu"
)

// Protocol selects the update discipline.
type Protocol int

// The two update protocols.
const (
	Atomic Protocol = iota // CSTORE with retry
	Racy                   // blind read-modify-write
)

// DefaultRetries bounds the CSTORE retry loop per Add.
const DefaultRetries = 16

// Counter is an end-host handle onto a shared SRAM tally reachable
// through probes toward (dstMAC, dstIP); the counter lives at addr on
// every switch along the path, gated to one switch by CEXEC.
type Counter struct {
	prober   *endhost.Prober
	dstMAC   core.MAC
	dstIP    uint32
	addr     mem.Addr
	switchID uint32
	proto    Protocol

	// Retries counts CSTORE conflicts that forced another round trip.
	Retries uint64
	// Failures counts Adds abandoned after DefaultRetries conflicts.
	Failures uint64
	// Inconclusive counts echoes that came back without having
	// executed at the gated switch (throttled or stripped en route);
	// each one is retried rather than trusted.
	Inconclusive uint64

	// poller folds Poll reads so deltas survive a switch crash-restart
	// wiping the tally back to zero.
	poller *agent.RegionPoller
}

// NewCounter builds a handle for the tally at SRAM address addr on the
// switch with the given id, along the path toward (dstMAC, dstIP).
func NewCounter(prober *endhost.Prober, dstMAC core.MAC, dstIP uint32,
	switchID uint32, addr mem.Addr, proto Protocol) *Counter {
	return &Counter{prober: prober, dstMAC: dstMAC, dstIP: dstIP,
		addr: addr, switchID: switchID, proto: proto, poller: agent.NewRegionPoller(1)}
}

// Discontinuities counts Polls that found the counter re-based — the
// switch rebooted (epoch bump) or the value ran backwards.
func (c *Counter) Discontinuities() uint64 { return c.poller.Discontinuities }

// Add increments the shared counter by n; done (optional) runs with the
// value the counter held after this update was applied (or the last
// observed value if the update was abandoned).
func (c *Counter) Add(n uint32, done func(uint32)) {
	c.read(DefaultRetries, func(old, _ uint32) { c.attempt(old, n, DefaultRetries, done) })
}

// read fetches the current value and the switch's boot epoch with a
// one-word endhost.GatedChunkProgram, retrying up to budget times when
// the echo shows the program never executed at the gated switch.  An
// exhausted budget drops the read silently: the caller's next cycle
// re-reads anyway.
func (c *Counter) read(budget int, fn func(value, epoch uint32)) {
	tpp, err := endhost.GatedChunkProgram(c.switchID, []mem.Addr{c.addr}, tcpu.DefaultMaxInstructions)
	if err != nil {
		return // impossible: one word always fits
	}
	c.prober.Probe(c.dstMAC, c.dstIP, tpp, func(e *core.TPP) {
		var value [1]uint32
		epoch, ok := endhost.DecodeGatedChunk(e, value[:])
		if !ok {
			c.Inconclusive++
			if budget > 1 {
				c.prober.After(endhost.GatedRetryDelay(DefaultRetries-budget), func() {
					c.read(budget-1, fn)
				})
			}
			return
		}
		fn(value[0], epoch)
	})
}

// Poll reads the counter and reports the change since the previous
// Poll, folded through an agent.RegionPoller.  A switch crash-restart
// wipes the tally back to zero; without the epoch word a poller would
// compute a large negative delta and corrupt any rate estimate built
// on it.  Poll instead flags the discontinuity: discont is true (and
// the delta re-based to the increments accumulated since the wipe)
// whenever the boot epoch changed — or, belt-and-braces, whenever the
// value ran backwards.  The first Poll reports the tally it finds as
// its delta, with discont == false: what was counted before the first
// Poll is data too.
func (c *Counter) Poll(fn func(value uint32, delta int64, discont bool)) {
	c.read(DefaultRetries, func(value, epoch uint32) {
		deltas, discont := c.poller.Fold(0, epoch, []uint32{value})
		if fn != nil {
			fn(value, int64(deltas[0]), discont)
		}
	})
}

func (c *Counter) attempt(old, n uint32, budget int, done func(uint32)) {
	switch c.proto {
	case Atomic:
		// CEXEC gate, then CSTORE(addr, cond=old, src=old+n); the
		// switch writes the observed old value into the result slot,
		// which tells us whether we won.
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
			{Op: core.OpCSTORE, A: uint16(c.addr), B: 2},
		}, 5)
		tpp.SetWord(0, 0xFFFFFFFF)
		tpp.SetWord(1, c.switchID)
		tpp.SetWord(2, old)   // cond
		tpp.SetWord(3, old+n) // src
		tpp.SetWord(4, endhost.Unexecuted)
		c.prober.Probe(c.dstMAC, c.dstIP, tpp, func(e *core.TPP) {
			observed := e.Word(4)
			if observed == endhost.Unexecuted {
				// The CSTORE never ran at the gated switch (throttled
				// or stripped en route): the attempt is inconclusive,
				// not lost — retry with the same expected value.
				c.Inconclusive++
				if budget <= 1 {
					c.Failures++
					if done != nil {
						done(old)
					}
					return
				}
				c.prober.After(endhost.GatedRetryDelay(DefaultRetries-budget), func() {
					c.attempt(old, n, budget-1, done)
				})
				return
			}
			if observed == old {
				if done != nil {
					done(old + n)
				}
				return
			}
			// Lost the race: retry from the freshly observed value.
			c.Retries++
			if budget <= 1 {
				c.Failures++
				if done != nil {
					done(observed)
				}
				return
			}
			c.attempt(observed, n, budget-1, done)
		})
	case Racy:
		// Blind STORE of old+n: concurrent updates are silently lost.
		tpp := core.NewTPP(core.AddrStack, []core.Instruction{
			{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0},
			{Op: core.OpSTORE, A: uint16(c.addr), B: 2},
		}, 3)
		tpp.SetWord(0, 0xFFFFFFFF)
		tpp.SetWord(1, c.switchID)
		tpp.SetWord(2, old+n)
		c.prober.Probe(c.dstMAC, c.dstIP, tpp, func(e *core.TPP) {
			if done != nil {
				done(old + n)
			}
		})
	}
}
