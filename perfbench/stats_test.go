package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{200, 190, true}, // ranks 191..200 lie beyond
		{199, 190, false},
		{400, 380, true},
		{1, 1, false},
	} {
		got, ok := percentile(seq(tc.n), 0.95)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p95 of 1..%d = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("p50 of nothing = %v, %v", v, ok)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6, 3, 9},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relIQR([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimesSubtractsNestedChildrenOnce(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "step", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(30)},
		{Name: "b", Parent: 0, Start: at(20), End: at(50)},  // overlaps a
		{Name: "c", Parent: 0, Start: at(90), End: at(120)}, // runs past its parent
		{Name: "a.inner", Parent: 1, Start: at(12), End: at(14)},
		{Name: "other", Parent: -1, Start: at(0), End: at(5)},
	}
	// step: 100 − [10,50) − [90,100) = 50; a: 20 − 2 = 18.
	want := []time.Duration{at(50), at(18), at(30), at(30), at(2), at(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	self := spanStats(spans, true)
	if v := self["step"]; len(v) != 1 || v[0] != 50 {
		t.Errorf("spanStats self of step = %v, want [50]", v)
	}
}

func TestPacedScheduleChargesLateProducerOnce(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	period := at(10)
	// Frame 2 goes out 5 ms late (timer overshoot); frame 4 is held 15 ms
	// by a full queue. The producer does not catch up, so the schedule
	// resumes one period after each late send.
	sent := []time.Duration{at(0), at(10), at(25), at(35), at(60), at(70)}
	done := []time.Duration{at(4), at(14), at(31), at(39), at(64), at(74)}
	wantDue := []time.Duration{at(0), at(10), at(20), at(35), at(45), at(70)}
	wantLate := []time.Duration{0, 0, at(5), 0, at(15), 0}
	wantLat := []time.Duration{at(4), at(4), at(11), at(4), at(19), at(4)}
	due := pacedSchedule(sent, period)
	for i := range sent {
		if due[i] != wantDue[i] || sent[i]-due[i] != wantLate[i] || done[i]-due[i] != wantLat[i] {
			t.Errorf("frame %d: due %v late %v latency %v; want %v %v %v", i,
				due[i], sent[i]-due[i], done[i]-due[i], wantDue[i], wantLate[i], wantLat[i])
		}
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	for _, v := range []float64{1, 2} {
		a.addF(v)
		c.addF(v)
	}
	for _, v := range []float64{2, 1} {
		b.addF(v)
	}
	if a.sum() != c.sum() || a.sum() == b.sum() {
		t.Errorf("digests %s %s %s: want equal inputs equal, reordered different", a.sum(), c.sum(), b.sum())
	}
}
