package agent

// RegionPoller folds periodic sweeps of a switch SRAM word region into
// monotone per-word accumulations.  A sweep whose boot epoch differs
// from the last one observed for a word — or whose value ran
// backwards, belt-and-braces — means the switch crash-restarted and
// wiped the region, so the word's delta is re-based to the value
// accumulated since the wipe instead of going negative.
//
// The poller is transport-agnostic: callers (the in-band telemetry
// collector, accounting.Counter.Poll over its one-word tally, or any
// task sweeping counters it laid out in SRAM) read chunks of the
// region with gated TPPs that fetch the chunk and the switch's
// [Switch:Epoch] atomically in one execution, then Fold each chunk.
// Words are tracked independently because chunks land in separate
// probes: a reboot between two probes of one sweep re-bases exactly
// the words read after the wipe.
type RegionPoller struct {
	last      []uint32
	lastEpoch []uint32
	polled    []bool
	cum       []uint64

	// Discontinuities counts word re-basings (epoch bump or value
	// regression).  Folds counts Fold calls that were applied.
	Discontinuities uint64
	Folds           uint64
}

// NewRegionPoller tracks a region of the given word count.
func NewRegionPoller(words int) *RegionPoller {
	return &RegionPoller{
		last:      make([]uint32, words),
		lastEpoch: make([]uint32, words),
		polled:    make([]bool, words),
		cum:       make([]uint64, words),
	}
}

// Words returns the tracked region size.
func (p *RegionPoller) Words() int { return len(p.last) }

// Fold applies one atomically-read chunk: vals[i] is the value of word
// offset+i, and epoch is the boot epoch read in the same TPP execution.
// It returns the per-word deltas this sweep contributed (never
// negative: a wiped word re-bases to its post-wipe value) and whether
// any word was re-based.  The first observation of a word reports the
// value already there as its delta, without a discontinuity: what was
// counted before the poller started is data too, so Cumulative covers
// the whole epoch.  Chunks that fall outside the region are clipped.
func (p *RegionPoller) Fold(offset int, epoch uint32, vals []uint32) (deltas []uint64, discont bool) {
	deltas = make([]uint64, len(vals))
	for i, v := range vals {
		w := offset + i
		if w < 0 || w >= len(p.last) {
			continue
		}
		switch {
		case !p.polled[w]:
			p.polled[w] = true
			deltas[i] = uint64(v)
		case epoch != p.lastEpoch[w] || v < p.last[w]:
			p.Discontinuities++
			discont = true
			deltas[i] = uint64(v)
		default:
			deltas[i] = uint64(v) - uint64(p.last[w])
		}
		p.cum[w] += deltas[i]
		p.last[w] = v
		p.lastEpoch[w] = epoch
	}
	p.Folds++
	return deltas, discont
}

// Current returns the last observed value of word w — the word's
// accumulation within the switch's current boot epoch, i.e. what is in
// SRAM right now (as of the last sweep).
func (p *RegionPoller) Current(w int) uint32 {
	if w < 0 || w >= len(p.last) {
		return 0
	}
	return p.last[w]
}

// Cumulative returns everything ever folded for word w, across wipes:
// the sum of all (re-based, never negative) deltas.  Cumulative(w) >=
// Current(w) always; the difference is what sweeps collected before a
// wipe destroyed it.
func (p *RegionPoller) Cumulative(w int) uint64 {
	if w < 0 || w >= len(p.cum) {
		return 0
	}
	return p.cum[w]
}
