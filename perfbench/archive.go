package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// archive-dense: an offline census over an archive. Closed-loop clients
// (at most one per core) send 64×64 snapshots at the paper's storm density
// through exaclim.NewFleet — 2 shards × 1 replica, max batch 8, overlap 2,
// FP32, no early exit — so every tile takes the full decode path.
const (
	archiveGrid       = 64
	archiveTile       = 16
	archiveOverlap    = 2
	archiveShards     = 2
	archiveMaxBatch   = 8
	archiveSnapshots  = 16
	archiveClients    = 2
	archiveTrainSteps = 8
	archiveSetupReps  = 9
	archiveCheckOneIn = 16 // request 0 and one in this many have their masks checked
	archiveReplayReqs = 8
)

type archiveReq struct {
	start, end time.Time
	snap       int
	mask       *tensor.Tensor // kept for the checked sample only
	err        error
}

func runArchiveDense(rc runConfig) (*outcome, error) {
	o := newOutcome()
	dir, err := os.MkdirTemp(rc.workdir, "archive-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sm, err := trainServingModel(dir, archiveTile, archiveTrainSteps)
	if err != nil {
		return nil, err
	}
	ds := climate.NewDataset(climate.DefaultGenConfig(archiveGrid, archiveGrid, rc.seed), archiveSnapshots)
	fields := make([]*tensor.Tensor, archiveSnapshots)
	for i := range fields {
		fields[i] = ds.Sample(i).Fields
	}
	rotate := int(splitmix(uint64(rc.seed)) % archiveSnapshots)
	snapOf := func(i int) int { return (i + rotate) % archiveSnapshots }
	sampleAt := int(splitmix(uint64(rc.seed)+1) % archiveCheckOneIn)
	checked := func(i int) bool { return i == 0 || i%archiveCheckOneIn == sampleAt }
	segCfg := exaclim.SegmentConfig{Overlap: archiveOverlap}

	fl, setup, err := medianSetup(archiveSetupReps, func() (*exaclim.Fleet, error) {
		m, err := sm.load()
		if err != nil {
			return nil, err
		}
		f, err := exaclim.NewFleet(m,
			exaclim.WithShards(archiveShards),
			exaclim.WithShardReplicas(1),
			exaclim.WithFleetMaxBatch(archiveMaxBatch),
			exaclim.WithFleetSegmentConfig(segCfg))
		if err != nil {
			return nil, err
		}
		if _, _, err := f.Segment(context.Background(), fields[snapOf(0)]); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}, func(f *exaclim.Fleet) { f.Close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fl.Close()
	o.values["setup_s"] = setup

	var rec *recorder
	if rc.trace {
		rec = newRecorder()
	}
	clients := min(archiveClients, runtime.NumCPU())
	var (
		mu      sync.Mutex
		reqs    = make(map[int]*archiveReq)
		wg      sync.WaitGroup
		before  runtimeSample
		begin   = time.Now()
		w0      = begin.Add(warmup)
		stopAt  = w0.Add(rc.window())
		started sync.Once
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i += clients {
				start := time.Now()
				if !start.Before(stopAt) {
					return
				}
				if !start.Before(w0) {
					started.Do(func() { before = readRuntime() })
				}
				r := &archiveReq{start: start, snap: snapOf(i)}
				mask, _, err := fl.Segment(context.Background(), fields[r.snap])
				r.end, r.err = time.Now(), err
				if checked(i) {
					r.mask = mask
				}
				if off := start.Sub(w0); off >= 0 && rc.trace && tracedAt(off) {
					rec.add("fleet.segment", int64(i), -1, start, r.end)
				}
				mu.Lock()
				reqs[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	st := fl.Stats()

	var lat, traced, untraced []float64
	var lastEnd time.Time
	inWindow, failed := 0, 0
	for _, r := range reqs {
		if r.start.Before(w0) {
			continue
		}
		inWindow++
		if r.err != nil {
			failed++
			continue
		}
		d := ms(r.end.Sub(r.start))
		lat = append(lat, d)
		if tracedAt(r.start.Sub(w0)) {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if r.end.After(lastEnd) {
			lastEnd = r.end
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request completed in the measured window")
	}
	o.attempted, o.failed = inWindow, failed
	o.values["throughput_per_s"] = float64(len(lat)) / lastEnd.Sub(w0).Seconds()
	o.latencyMetrics(lat)
	o.values["peak_rss_mb"] = rss
	o.runtimeLayer(before, after, inWindow)
	o.values["fleet.requests"] = float64(st.Requests)
	o.values["fleet.tiles_per_req"] = float64(st.Tiles) / float64(st.Requests)
	o.values["fleet.redispatched_tiles"] = float64(st.Redispatched)
	o.values["fleet.redispatch_frac"] = float64(st.Redispatched) / float64(st.Tiles)
	o.note("archive-dense: %d requests in the window (%d clients), %d in all; fleet decoded %d tiles, re-dispatched %d",
		inWindow, clients, len(reqs), st.Tiles, st.Redispatched)
	if err := fl.Close(); err != nil {
		return nil, err
	}

	// Output check: the sampled masks equal the serial FP32 Model.Segment
	// of the same snapshot, bit for bit.
	ref, err := sm.load()
	if err != nil {
		return nil, err
	}
	want := make(map[int]*tensor.Tensor)
	sampled, mismatched := 0, 0
	for _, r := range reqs {
		if r.mask == nil {
			continue
		}
		if want[r.snap] == nil {
			if want[r.snap], err = ref.Segment(fields[r.snap], segCfg); err != nil {
				return nil, err
			}
		}
		sampled++
		if !equalF32(r.mask.Data(), want[r.snap].Data()) {
			mismatched++
		}
	}
	o.check("masks equal serial FP32", sampled > 0 && mismatched == 0, "%d of %d sampled requests differ", mismatched, sampled)

	if rc.trace {
		if err := replayArchive(sm, fields, rec, o); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		o.spans = rec.snapshot()
		o.traceOverhead(traced, untraced)
	}
	return o, nil
}

// replayArchive decodes archiveReplayReqs requests tile batch by tile
// batch through an infer.Runner at the fleet's shapes, recording a span
// per RunBatch, and the conv GEMMs of one tile.
func replayArchive(sm servingModel, fields []*tensor.Tensor, rec *recorder, o *outcome) error {
	net, err := sm.network()
	if err != nil {
		return err
	}
	cfg := infer.Config{TileH: sm.tile, TileW: sm.tile, Overlap: archiveOverlap, MaxBatch: archiveMaxBatch}
	r, err := infer.NewRunner(infer.FromModel(net), cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	tiles, err := infer.Plan(archiveGrid, archiveGrid, cfg)
	if err != nil {
		return err
	}
	var decodeMs float64
	var live poolGrowth
	for q := -1; q < archiveReplayReqs; q++ { // request -1 warms the runner
		if q == 0 {
			live.start(r)
		}
		f := fields[(q+archiveSnapshots)%archiveSnapshots]
		mask := tensor.New(tensor.Shape{archiveGrid, archiveGrid})
		items := make([]infer.BatchItem, len(tiles))
		for i, t := range tiles {
			items[i] = infer.BatchItem{Fields: f, Tile: t, Mask: mask}
		}
		for _, b := range batches(items, archiveMaxBatch) {
			start := time.Now()
			if err := r.RunBatch(b); err != nil {
				return err
			}
			end := time.Now()
			if q >= 0 {
				rec.add("infer.decode", int64(q), -1, start, end)
				decodeMs += ms(end.Sub(start))
			}
		}
	}
	o.values["infer.decode_ms_per_tile"] = decodeMs / float64(archiveReplayReqs*len(tiles))
	live.stop(r, archiveReplayReqs, o)
	o.note("replay: %d requests × %d tiles", archiveReplayReqs, len(tiles))

	gemms, err := inferenceGemms(net, net.Logits)
	if err != nil {
		return err
	}
	o.values["tensor.gemm_gflops"] = replayGemms(gemms, rec)
	o.values["tensor.gemm_gflop_per_op"] = gflop(gemms) * float64(len(tiles)) // per request
	return nil
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
