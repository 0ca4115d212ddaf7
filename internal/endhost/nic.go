// Package endhost implements the host side of the TPP architecture:
// "smartness at the edge".  Hosts carry a NIC with a drop-tail transmit
// queue, demultiplex received packets to protocol handlers, echo
// executed TPPs back to their senders, and run Prober/Collector agents
// that the example network tasks (RCP*, micro-burst detection, ndb)
// are built from.
package endhost

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/verify"
)

// DefaultNICQueue is the transmit queue capacity in packets.
const DefaultNICQueue = 256

// NIC is a host network interface: a FIFO transmit queue in front of
// one egress channel.  The NIC is also the trusted edge of the TPP
// architecture: it seals tenant identities and statically verifies
// programs at injection (§3.5), memoizing verdicts by the program's
// static shape so repeated flows do not pay verification again.
type NIC struct {
	ch *netsim.Channel
	// queue[qhead:] are the waiting packets; kick advances qhead so
	// the backing array is reused instead of re-sliced away.
	queue []*core.Packet
	qhead int
	max   int

	verifier  *verify.Config
	mRejected *obs.Counter
	tenant    uint8

	// vcache memoizes verification results by the full static shape
	// of the TPP; it resets when the verifier or tenant changes.
	vcache map[verifyKey]verify.Result

	// Drops counts transmit-queue tail drops.
	Drops uint64
	// Sent counts packets handed to the channel.
	Sent uint64
	// Rejected counts TPP packets the static verifier refused to
	// inject.
	Rejected uint64
	// LastVerify is the verification result of the most recent
	// TPP-bearing Send, for diagnostics and tests.
	LastVerify verify.Result
}

// NewNIC builds a NIC with a transmit queue of max packets (0 selects
// DefaultNICQueue).
func NewNIC(max int) *NIC {
	if max <= 0 {
		max = DefaultNICQueue
	}
	return &NIC{max: max}
}

// Attach wires the NIC to its egress channel.
func (n *NIC) Attach(ch *netsim.Channel) {
	n.ch = ch
	ch.SetOnIdle(n.kick)
}

// SetCapacity resizes the transmit queue limit; experiments that
// pre-queue large batches raise it.
func (n *NIC) SetCapacity(max int) {
	if max > 0 {
		n.max = max
	}
}

// QueueLen returns the number of packets waiting to transmit.
func (n *NIC) QueueLen() int { return len(n.queue) - n.qhead }

// SetVerifier installs the end-host sanity check of §3.5: every
// TPP-bearing packet is statically verified at injection time and
// rejected (Send returns false) when the program carries
// error-severity diagnostics, so provably faulting or over-budget
// programs never enter the fabric.  rejected, when non-nil, is
// incremented per rejection (wire it to an obs.Registry counter).
// A nil cfg disables verification (the default).
func (n *NIC) SetVerifier(cfg *verify.Config, rejected *obs.Counter) {
	n.verifier = cfg
	n.mRejected = rejected
	// Cached verdicts were produced under the old config; drop them.
	n.vcache = nil
}

// SetTenant binds the NIC to an isolation principal.  The NIC is the
// trusted edge of the tenant guard — the hypervisor vswitch of the
// extended paper — so Send stamps every outgoing TPP with this id,
// overwriting whatever the guest wrote: identities are sealed at the
// edge, never claimed by guests.  An unconfigured NIC is an
// infrastructure (operator, id 0) NIC.
func (n *NIC) SetTenant(id uint8) {
	n.tenant = id
	n.vcache = nil // verdicts may depend on the sealed identity
}

// Tenant returns the sealed tenant id.
func (n *NIC) Tenant() uint8 { return n.tenant }

// Send queues the packet for transmission, returning false on a tail
// drop or a verifier rejection.
func (n *NIC) Send(pkt *core.Packet) bool {
	if pkt.TPP != nil {
		// Seal the tenant identity before anything else — including
		// verification, which must judge the program as the tenant it
		// will actually run as.
		pkt.TPP.Tenant = n.tenant
		if n.verifier != nil {
			n.LastVerify = n.verifyCached(pkt.TPP)
			if !n.LastVerify.OK() {
				n.Rejected++
				n.mRejected.Inc()
				return false
			}
		}
	}
	if n.QueueLen() >= n.max {
		n.Drops++
		return false
	}
	n.queue = append(n.queue, pkt)
	n.kick()
	return true
}

// verifyKey is the full static shape verification judges: every TPP
// field Verify reads except packet-memory contents (which it never
// inspects).  The verifier config and sealed tenant are fixed per NIC
// and reset the cache when they change.
type verifyKey struct {
	n        uint8
	mode     core.AddrMode
	version  uint8
	tenant   uint8
	ptr      uint16
	hopLen   uint16
	memWords uint16
	ins      [maxVerifyKeyIns]uint32
}

// maxVerifyKeyIns bounds the program length verifyCached memoizes;
// longer programs (beyond anything a per-packet device limit admits)
// are verified on every send.
const maxVerifyKeyIns = 16

// maxVerifyCache bounds the memoized verdict map; NICs see a handful
// of distinct programs, so overflow means an adversarial workload and
// a full reset is the simplest safe answer.
const maxVerifyCache = 1024

func (n *NIC) verifyCached(t *core.TPP) verify.Result {
	if len(t.Ins) > maxVerifyKeyIns {
		return verify.Verify(t, *n.verifier)
	}
	k := verifyKey{
		n: uint8(len(t.Ins)), mode: t.Mode, version: t.Version,
		tenant: t.Tenant, ptr: t.Ptr, hopLen: t.HopLen,
		memWords: uint16(t.MemWords()),
	}
	for i, in := range t.Ins {
		k.ins[i] = in.Word()
	}
	if res, ok := n.vcache[k]; ok {
		return res
	}
	res := verify.Verify(t, *n.verifier)
	if n.vcache == nil || len(n.vcache) >= maxVerifyCache {
		n.vcache = make(map[verifyKey]verify.Result, 64)
	}
	n.vcache[k] = res
	return res
}

func (n *NIC) kick() {
	if n.ch == nil || n.ch.Busy() || n.qhead == len(n.queue) {
		return
	}
	pkt := n.queue[n.qhead]
	n.queue[n.qhead] = nil
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qhead = 0
	}
	n.Sent++
	n.ch.Send(pkt)
}
