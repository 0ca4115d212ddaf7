package main

// Host-speed calibration.  On a shared 2-vCPU VM the host's speed was
// seen to drift by tens of percent over seconds and by up to 2.4x over
// tens of minutes, with almost no steal time reported, so raw wall
// times of the same code spread beyond any useful bound.  The untraced
// run therefore interleaves a fixed calibration kernel with its
// episodes and reports every wall time in reference-host units: scaled
// by the reference kernel time over the kernel time measured in the
// same run.  A host that runs at another speed, or changes speed,
// reads the same; a program that gets faster or slower does not, since
// the kernel runs none of its code.

const (
	// calibOps is the number of event-loop steps in one kernel chunk.
	calibOps = 40000
	// calibRefMs defines the reference host: a round figure near one
	// chunk's time on the 2-vCPU VM the measured table in README.md
	// came from.
	calibRefMs = 5.0
	// calibShare is the calibration's wall time per episode wall time.
	calibShare = 0.25
)

// calibrator runs kernel chunks between episodes, so that they sample
// the host's speed over the whole run.
type calibrator struct {
	chunkMs     []float64
	spent, owed int64 // ns
}

// after runs chunks until the calibration has had calibShare of the
// episode time so far.
func (c *calibrator) after(episodeNs int64) {
	c.owed += int64(calibShare * float64(episodeNs))
	for c.spent < c.owed {
		t0 := monoNow()
		calibKernel(calibOps)
		d := monoNow() - t0
		c.spent += d
		c.chunkMs = append(c.chunkMs, float64(d)/1e6)
	}
}

// slowness is the host's median chunk time over the reference's: 2
// means this run's host ran the kernel at half the reference speed.
func (c *calibrator) slowness() float64 {
	if len(c.chunkMs) == 0 {
		return 1
	}
	return median(c.chunkMs) / calibRefMs
}

// calibEvent is one kernel event: a time key and a payload as big as a
// small frame's.
type calibEvent struct {
	t int64
	p *[64]byte
}

var calibSink byte

// calibKernel steps a 1024-deep binary-heap event loop n times.  Each
// step pops the earliest event, allocates and fills the next one's
// payload from it, and pushes it.  It stresses what the simulator
// stresses: a heap of event keys, small allocations, GC and copies.
func calibKernel(n int) {
	h := make([]calibEvent, 0, 1024)
	z := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		z = z*6364136223846793005 + 1442695040888963407
		return z
	}
	push := func(e calibEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].t <= h[i].t {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() calibEvent {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].t < h[l].t {
				l = r
			}
			if h[i].t <= h[l].t {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		return top
	}
	for i := 0; i < cap(h); i++ {
		push(calibEvent{t: int64(next() >> 40), p: new([64]byte)})
	}
	for i := 0; i < n; i++ {
		e := pop()
		p := new([64]byte)
		*p = *e.p
		p[i%len(p)] ^= byte(next())
		push(calibEvent{t: e.t + int64(next()>>50), p: p})
	}
	calibSink ^= h[0].p[0]
}
