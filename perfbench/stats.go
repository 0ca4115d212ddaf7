package main

import (
	"math"
	"math/rand"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reservoir keeps a uniform sample of at most cap values from an
// unbounded stream (Algorithm R), so per-call timings of millions of
// calls cost bounded memory.
type reservoir struct {
	vals []float64
	seen int
	cap  int
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.vals[j] = v
	}
}

// fnv folds values into a 64-bit FNV-1a digest: the episode outcome
// fingerprint compared across replays and traced/untraced runs.  It is
// folded per delivered frame inside the measured slices, where
// hash/fnv's Write through an interface would allocate.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*h ^= fnv(byte(v >> (8 * i)))
			*h *= 1099511628211
		}
	}
}

// splitmix derives the i-th episode seed from the workload seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}
