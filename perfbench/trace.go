package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans of
// one step, request or frame share a unit id; a child names its parent by
// index into the recorder (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Unit   int64         `json:"unit"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the recorder's origin
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs and untraced blocks of a traced run
// skip the bookkeeping.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished interval and returns its index (-1 when r is nil).
func (r *recorder) add(name string, unit int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Unit: unit, Parent: parent,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
	return len(r.spans) - 1
}

// open starts a span now and returns its index, for spans whose children
// must name them before they end (-1 when r is nil).
func (r *recorder) open(name string, unit int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.add(name, unit, parent, now, now)
}

// close ends the span open returned.
func (r *recorder) close(i int) {
	if r == nil || i < 0 {
		return
	}
	end := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children are merged first, so time
// in which two children ran at once is subtracted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(0), time.Duration(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				curStart, curEnd = lo, hi
			} else {
				curEnd = max(curEnd, hi)
			}
		}
		flush()
		out[i] = s.dur() - covered
	}
	return out
}

// spanStats groups span durations (or self times) by name, in milliseconds.
func spanStats(spans []span, self bool) map[string][]float64 {
	var st []time.Duration
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		d := s.dur()
		if self {
			d = st[i]
		}
		out[s.Name] = append(out[s.Name], ms(d))
	}
	return out
}

// writeTrace writes the spans, with the host stamp, as one JSON file under
// dir and returns its path.
func writeTrace(dir, workload string, seed int64, host hostStamp, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Host     hostStamp `json:"host"`
		Spans    []span    `json:"spans"`
	}{workload, seed, host, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
