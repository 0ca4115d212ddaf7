package main

import (
	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/microburst"
	"repro/internal/netsim"
	"repro/internal/tcam"
	"repro/internal/tcpu"
)

// Layer probes time one public entry point per call, fed with the
// workload's own inputs: the frame shape it sends, the programs it
// runs, the echoes it parses, the table size its switches look up in
// and the event-set depth its simulator runs at.  Each probe reports
// the median over several batches.

// probeSwitchID is the switch id the probes' gated programs name, so
// their CEXEC passes and the whole program runs.
const probeSwitchID = 1

// probeInput is one workload's probe inputs.
type probeInput struct {
	frame   func() *core.Packet // a fresh frame as the workload sends it
	progs   []*core.TPP         // programs the workload's frames carry
	routes  int                 // TCAM routes per switch; 0 forwards by L2
	payload int                 // data payload bytes per frame
}

func fig2Probe() probeInput {
	collect, _ := endhost.CollectProgram([]mem.Addr{
		mem.SwitchBase + mem.SwitchID, mem.PortBase + mem.PortQueueSize,
		mem.PortBase + mem.PortRXUtil, mem.PortBase + mem.PortScratchBase,
		mem.SwitchBase + mem.SwitchEpoch,
	}, 7, tcpu.DefaultMaxInstructions)
	return probeInput{
		frame: func() *core.Packet {
			return udpFrame(1460)
		},
		progs:   []*core.TPP{collect},
		payload: 1460,
	}
}

func intProbe() probeInput {
	return probeInput{
		frame: func() *core.Packet {
			p := udpFrame(64)
			microburst.Instrument(p, maxHops)
			return p
		},
		progs:   []*core.TPP{microburst.TelemetryProgram(maxHops)},
		routes:  lsLeaves * lsHosts,
		payload: 64,
	}
}

func writesProbe() probeInput {
	gate := func(ins []core.Instruction, words int) *core.TPP {
		t := core.NewTPP(core.AddrStack, ins, words)
		t.SetWord(0, ^uint32(0))
		t.SetWord(1, probeSwitchID)
		return t
	}
	cexec := core.Instruction{Op: core.OpCEXEC, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0}
	cstore := gate([]core.Instruction{cexec, {Op: core.OpCSTORE, A: uint16(mem.SRAMBase), B: 2}}, 5)
	read := gate([]core.Instruction{cexec,
		{Op: core.OpLOAD, A: uint16(mem.SRAMBase), B: 2},
		{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchEpoch), B: 3}}, 4)
	heartbeat := gate([]core.Instruction{cexec, {Op: core.OpSTORE, A: uint16(mem.SRAMBase + 1), B: 2}}, 3)
	sweep, _ := endhost.GatedChunkProgram(probeSwitchID,
		[]mem.Addr{mem.SRAMBase, mem.SRAMBase + 1, mem.SRAMBase + 2}, tcpu.DefaultMaxInstructions)
	rtt := core.NewTPP(core.AddrStack, []core.Instruction{
		{Op: core.OpLOAD, A: uint16(mem.SwitchBase + mem.SwitchID), B: 0}}, 1)
	return probeInput{
		frame: func() *core.Packet {
			p := udpFrame(4)
			p.TPP = cstore.Clone()
			p.Eth.Type = core.EtherTypeTPP
			return p
		},
		progs:   []*core.TPP{read, cstore, heartbeat, sweep, rtt},
		routes:  lsLeaves * lsHosts,
		payload: 64,
	}
}

var (
	probeSrcMAC = core.MACFromUint64(0x020000000001)
	probeDstMAC = core.MACFromUint64(0x020000000002)
	probeSrcIP  = core.IPv4Addr(10, 0, 0, 1)
	probeDstIP  = core.IPv4Addr(10, 0, 0, 2)
)

func udpFrame(payload int) *core.Packet {
	p := core.NewUDPPacket(
		core.Ethernet{Dst: probeDstMAC, Src: probeSrcMAC, Type: core.EtherTypeIPv4},
		core.IPv4{TTL: 64, Proto: core.ProtoUDP, Src: probeSrcIP, Dst: probeDstIP},
		core.UDP{SrcPort: dataPort, DstPort: dataPort},
	)
	p.PadLen = payload
	return p
}

// probeResult holds the per-call medians, in ns.
type probeResult struct {
	cloneNs, parseNs, execNs, hopNs, eventNs, sendNs float64
}

const (
	probeBatch   = 256
	probeBatches = 40
)

// timeBatches runs fn (which performs n calls) probeBatches times and
// returns the median ns per call.
func timeBatches(n int, prep func(), fn func()) float64 {
	var per []float64
	for i := 0; i < probeBatches; i++ {
		if prep != nil {
			prep()
		}
		t0 := monoNow()
		fn()
		per = append(per, float64(monoNow()-t0)/float64(n))
	}
	return median(per)
}

// sink is a netsim.Receiver that returns every frame to the pool.
type sink struct{}

func (sink) Receive(p *core.Packet, _ int) { p.Recycle() }

func runProbes(in probeInput, pendingDepth int) probeResult {
	var r probeResult

	// core: ClonePooled+Recycle of the workload's frame.
	frame := in.frame()
	r.cloneNs = timeBatches(probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			frame.ClonePooled().Recycle()
		}
	})

	// tcpu: each program on a switch memory view; core: ParseTPP of
	// each program's executed echo bytes.
	sim := netsim.New(1)
	sw := asic.New(sim, asic.Config{ID: probeSwitchID, Ports: 4})
	view := sw.ViewForTesting(nil, 0)
	var cfg tcpu.Config
	batch := make([]*core.TPP, probeBatch*len(in.progs))
	r.execNs = timeBatches(len(batch), func() {
		for i := range batch {
			batch[i] = in.progs[i%len(in.progs)].Clone()
		}
	}, func() {
		for _, t := range batch {
			cfg.Exec(t, view)
		}
	})
	var echoes [][]byte
	for _, p := range in.progs {
		t := p.Clone()
		cfg.Exec(t, view)
		echoes = append(echoes, t.AppendTo(nil))
	}
	var parsed core.TPP
	r.parseNs = timeBatches(probeBatch*len(echoes), nil, func() {
		for i := 0; i < probeBatch; i++ {
			for _, b := range echoes {
				core.ParseTPP(b, &parsed)
			}
		}
	})

	r.hopNs = hopProbe(in)
	r.eventNs = eventProbe(pendingDepth)
	r.sendNs = sendProbe(in)
	return r
}

// hopProbe times one frame from Switch.Receive to its arrival on the
// egress link's far end, on a switch holding the workload's table.
func hopProbe(in probeInput) float64 {
	sim := netsim.New(1)
	sw := asic.New(sim, asic.Config{ID: probeSwitchID, Ports: 4})
	out := sink{}
	for p := 0; p < 2; p++ {
		sw.Wire(p, netsim.NewChannel(sim, 10e9, netsim.Microsecond, out, 0))
	}
	if in.routes > 0 {
		for i := 0; i < in.routes; i++ {
			ip := core.IPv4Addr(10, 0, 1, byte(i))
			if i == 0 {
				ip = probeDstIP
			}
			v, m := tcam.DstIPRule(ip)
			sw.TCAM().Insert(10, v, m, tcam.Action{OutPort: 0})
		}
	} else {
		// L2: let the switch learn the destination on port 0.
		learn := udpFrame(0)
		learn.Eth.Src, learn.Eth.Dst = probeDstMAC, core.BroadcastMAC
		sw.Receive(learn, 0)
		sim.RunUntil(sim.Now() + netsim.Millisecond)
	}
	frame := in.frame()
	batch := make([]*core.Packet, probeBatch)
	return timeBatches(probeBatch, func() {
		for i := range batch {
			batch[i] = frame.ClonePooled()
		}
	}, func() {
		for _, p := range batch {
			sw.Receive(p, 1)
			sim.RunUntil(sim.Now() + 10*netsim.Microsecond)
		}
	})
}

// eventProbe times one Sim.At plus its firing with depth other events
// pending, the depth the workload's simulator runs at.
func eventProbe(depth int) float64 {
	sim := netsim.New(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		sim.At(netsim.Time(1)<<50+netsim.Time(i), noop)
	}
	return timeBatches(probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			sim.At(sim.Now()+1, noop)
			sim.RunUntil(sim.Now() + 1)
		}
	})
}

// sendProbe times Host.NewPacket+Send of the workload's data frame.
// (Host.Receive needs no probe: the traced run's shims time it on
// every workload.)
func sendProbe(in probeInput) float64 {
	sim := netsim.New(1)
	h := endhost.NewHost(sim, probeSrcMAC, probeSrcIP)
	h.NIC.Attach(netsim.NewChannel(sim, 10e9, 0, sink{}, 0))
	const n = 64 // well inside the NIC queue
	return timeBatches(n, func() { sim.RunUntil(sim.Now() + netsim.Millisecond) }, func() {
		for i := 0; i < n; i++ {
			h.Send(h.NewPacket(probeDstMAC, probeDstIP, dataPort, dataPort, in.payload))
		}
	})
}
