package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p95 over fewer than 200 samples is the maximum of a handful of values,
// and moves from run to run with nothing changed.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1) and
// whether at least minBeyond samples lie strictly above its rank. xs is not
// modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s)-1-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the spread of
// repeated benchmark runs is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		// Position j·(n+1)/4 (1-based), linearly interpolated; the index is
		// clamped to 1..n-1 before the fraction is taken, as Python does.
		pos := float64(j*(n+1)) / 4
		lo := max(1, min(int(math.Floor(pos)), n-1))
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// relIQR is the distance between the quartiles of xs as a share of their
// median.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacedSchedule reconstructs when an open-loop producer meant to send each
// unit, from the times it actually sent them. It models the stream
// package's pacing: the first unit is due when it is sent, and each later
// unit is due one period after the previous unit's due time or, when the
// producer sent that unit late, one period after it actually went out (the
// producer does not burst to catch up). Lateness is sent−due; a unit's
// latency is counted from its due time, so a stalled producer charges its
// stall to the frames it delays.
func pacedSchedule(sent []time.Duration, period time.Duration) (due []time.Duration) {
	due = make([]time.Duration, len(sent))
	for i := range sent {
		due[i] = sent[0]
		if i > 0 {
			due[i] = max(due[i-1], sent[i-1]) + period
		}
	}
	return due
}

// digest is an order-sensitive FNV-1a hash over a sequence of numbers,
// printed so two runs can be compared for identical arithmetic at a glance.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(w uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *digest) addF(f float64) { d.add(math.Float64bits(f)) }

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
