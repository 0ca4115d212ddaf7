package main

import (
	"fmt"
	"math"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/netsim"
	"repro/internal/rcp"
	"repro/internal/topo"
)

// fig2Config is the paper's Fig. 2 set-up: three RCP* flows on a
// 10 Mb/s dumbbell starting at 0, 10 and 20 s.  The episode seed
// reaches only the simulator's random source, which this lossless
// path never draws from, so every episode replays the paper's run.
// (Seeded jitter of up to 50 ms on the flow starts fails the shape
// check on about a quarter of episodes; see README.md.)
func fig2Config(seed int64) rcp.Fig2Config {
	cfg := rcp.DefaultFig2Config(rcp.VariantStar)
	cfg.Seed = seed
	return cfg
}

// buildFig2 assembles the same network, in the same order, as
// rcp.RunFigure2, but on links the benchmark owns (so the traced run
// can shim them) and stepped by the caller in fixed slices.  The
// episode's replay goes through rcp.RunFigure2 itself, which proves
// the two agree sample for sample.
func buildFig2(seed int64, tr *tracer) (*env, error) {
	cfg := fig2Config(seed)
	e := newEnv(cfg.Seed, tr)
	sim := e.sim

	queueCap := int(cfg.BottleneckMbps * 1e6 / 8 * cfg.Params.D.Seconds())
	swCfg := asic.Config{Ports: 8, QueueCapBytes: queueCap}
	a := e.addSwitch(swCfg)
	b := e.addSwitch(swCfg)
	bottleneck := topo.Mbps(cfg.BottleneckMbps, 10*netsim.Millisecond)
	edge := topo.Mbps(cfg.EdgeMbps, netsim.Millisecond)
	e.linkSwitches(a, 0, b, 0, bottleneck)

	flows := len(cfg.FlowStarts)
	senders := make([]*endhost.Host, flows)
	receivers := make([]*endhost.Host, flows)
	for i := 0; i < flows; i++ {
		senders[i] = e.addHost()
		e.linkHost(senders[i], a, 1+i, edge)
	}
	for i := 0; i < flows; i++ {
		receivers[i] = e.addHost()
		e.linkHost(receivers[i], b, 1+i, edge)
	}
	e.net.PrimeL2(50 * netsim.Millisecond)

	capacityBytes := cfg.BottleneckMbps * 1e6 / 8
	recvBytes := make([]uint64, flows)
	rcp.InitRateRegisters(a, b)
	for i := 0; i < flows; i++ {
		receivers[i].Handle(rcp.StarDataPort, e.handler(func(p *core.Packet) {
			recvBytes[i] += uint64(p.PayloadLen())
		}))
		ctl := rcp.NewStarController(sim, senders[i], e.newProber(senders[i]),
			receivers[i].MAC, receivers[i].IP, cfg.Params)
		sim.At(sim.Now()+cfg.FlowStarts[i], ctl.Start)
		stopAt := sim.Now() + cfg.Duration + netsim.Microsecond
		sim.At(stopAt, ctl.Stop)
	}
	bnPort := a.Port(0)

	var res rcp.Fig2Result
	start := sim.Now()
	lastBytes := make([]uint64, flows)
	sim.Every(start+cfg.SampleEvery, cfg.SampleEvery, func() {
		if sim.Now() > start+cfg.Duration {
			return
		}
		s := rcp.Fig2Sample{
			T:      (sim.Now() - start).Seconds(),
			ROverC: float64(bnPort.Scratch(0)) / capacityBytes,
		}
		for i := range recvBytes {
			s.Flows = append(s.Flows, float64(recvBytes[i]-lastBytes[i])/cfg.SampleEvery.Seconds())
			lastBytes[i] = recvBytes[i]
		}
		res.Samples = append(res.Samples, s)
	})

	e.measuredFrom = start
	e.measuredTo = start + cfg.Duration
	// About 1 ms of wall time: at one GC cycle per 20-30 ms of wall
	// time, GC reaches a few per cent of slices, so the p99 is a slice
	// that GC hit rather than the edge between hit and missed.
	e.slice = 500 * netsim.Millisecond
	// The controllers stop just after the last sample; one second
	// drains the 100 ms bottleneck queue and every link.
	e.quiet = e.measuredTo + netsim.Second
	e.check = func() []string {
		e.digest.add(fig2Digest(res))
		return fig2Shape(res, cfg)
	}
	return e, nil
}

// fig2Digest fingerprints a Fig. 2 series.
func fig2Digest(r rcp.Fig2Result) uint64 {
	h := newFNV()
	for _, s := range r.Samples {
		h.add(math.Float64bits(s.T), math.Float64bits(s.ROverC))
		for _, f := range s.Flows {
			h.add(math.Float64bits(f))
		}
	}
	return uint64(h)
}

// fig2Shape is the paper's Fig. 2 claim, as rcp's own shape test
// states it: the fair share R/C plateaus near 1, 1/2 and 1/3 (mean
// within 25% over the second half of each 10 s epoch), and settles
// within 20% of each plateau in under 5 s after each flow arrives.
func fig2Shape(r rcp.Fig2Result, cfg rcp.Fig2Config) []string {
	var bad []string
	if want := int(cfg.Duration / cfg.SampleEvery); len(r.Samples) != want {
		bad = append(bad, fmt.Sprintf("fig2: %d samples, want %d", len(r.Samples), want))
	}
	windows := [3][2]float64{{5, 10}, {15, 20}, {25, 30}}
	for i, w := range windows {
		want := 1 / float64(i+1)
		if got := r.MeanROverC(w[0], w[1]); math.Abs(got-want)/want > 0.25 {
			bad = append(bad, fmt.Sprintf("fig2: plateau %d mean R/C %.3f, want ~%.3f", i+1, got, want))
		}
		if ct := r.ConvergenceTime(w[0]-5, w[1], want, 0.2*want); ct > 5 {
			bad = append(bad, fmt.Sprintf("fig2: epoch %d took %.1fs to settle", i+1, ct))
		}
	}
	return bad
}

// fig2ReplayDigest runs the episode again through rcp.RunFigure2 and
// returns the episode digest its series gives, which must equal the
// stepped episode's.
func fig2ReplayDigest(seed int64) uint64 {
	h := newFNV()
	h.add(fig2Digest(rcp.RunFigure2(fig2Config(seed))))
	return uint64(h)
}
