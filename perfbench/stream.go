package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/storms"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// stream-sparse: storm tracking at a fixed open-loop frame rate, with a
// serving path that mostly exits early. Sparse-storm 64×96 frames (0–1 TC
// and AR each) flow through stream → serve.Server (2 replicas, block
// policy, calibrated early exit) → the storms tracker.
const (
	streamH, streamW   = 64, 96
	streamTile         = 24
	streamOverlap      = 3
	streamReplicas     = 2
	streamMaxBatch     = 8
	streamQueue        = 4
	streamMinPixels    = 4
	streamCalFrames    = 24
	streamTrainSteps   = 20
	streamSetupReps    = 5
	streamReplayFrames = 16
)

// streamFPS sits well below the ≈45–50 fps knee of a 2-core host, with room
// for the host itself to run twice as slow: at 30 fps, runs taken while the
// hypervisor stole CPU time went past capacity and their p95 grew tenfold.
const streamFPS = 20

// streamSource is the stream.Source seam: it hands out pre-generated
// frames and records when the producer asked for each.
type streamSource struct {
	frames []*climate.Sample
	sent   []time.Time
}

func (s *streamSource) Frame(t int) (*climate.Sample, error) {
	s.sent[t] = time.Now()
	return s.frames[t], nil
}

// streamSegmenter is the stream.Segmenter seam over the public server. The
// pipeline runs frames one at a time, so per-frame records need no lock;
// Run returning orders them before they are read.
type streamSegmenter struct {
	srv        *exaclim.Server
	frameOf    map[*tensor.Tensor]int
	start, end []time.Time
	stats      []serve.RequestStat
}

func (g *streamSegmenter) SegmentWith(ctx context.Context, fields *tensor.Tensor, _ serve.SegmentOpts) (*tensor.Tensor, serve.RequestStat, error) {
	// Under the block policy the pipeline never sets segment options (they
	// drive the degrade policy only), so the server's defaults apply.
	i := g.frameOf[fields]
	g.start[i] = time.Now()
	mask, st, err := g.srv.Segment(ctx, fields)
	g.end[i], g.stats[i] = time.Now(), st
	return mask, st, err
}

type streamService struct {
	srv *exaclim.Server
	cal exaclim.ExitCalibration
}

func runStreamSparse(rc runConfig) (*outcome, error) {
	o := newOutcome()
	dir, err := os.MkdirTemp(rc.workdir, "stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sm, err := trainServingModel(dir, streamTile, streamTrainSteps)
	if err != nil {
		return nil, err
	}
	warmFrames := int(warmup.Seconds() * streamFPS)
	n := warmFrames + int(rc.seconds*streamFPS)
	gen := climate.DefaultGenConfig(streamH, streamW, rc.seed)
	gen.MinTCs, gen.MaxTCs, gen.MinARs, gen.MaxARs = 0, 1, 0, 1
	seq, err := climate.NewSequence(gen, streamCalFrames+n)
	if err != nil {
		return nil, err
	}
	all := make([]*climate.Sample, streamCalFrames+n)
	for i := range all {
		if all[i], err = seq.Frame(i); err != nil {
			return nil, err
		}
	}
	calib := make([]*tensor.Tensor, streamCalFrames)
	for i := range calib {
		calib[i] = all[i].Fields
	}
	frames := all[streamCalFrames:]
	segCfg := exaclim.SegmentConfig{Overlap: streamOverlap}

	svc, setup, err := medianSetup(streamSetupReps, func() (streamService, error) {
		m, err := sm.load()
		if err != nil {
			return streamService{}, err
		}
		calCfg := segCfg
		calCfg.MaxBatch = streamMaxBatch
		cal, err := m.CalibrateExit(calib, calCfg, 1)
		if err != nil {
			return streamService{}, err
		}
		srv, err := exaclim.NewServer(m,
			exaclim.WithReplicas(streamReplicas),
			exaclim.WithMaxBatch(streamMaxBatch),
			exaclim.WithServeSegmentConfig(segCfg),
			exaclim.WithCalibratedExit(cal))
		if err != nil {
			return streamService{}, err
		}
		if _, _, err := srv.Segment(context.Background(), calib[0]); err != nil {
			srv.Close()
			return streamService{}, err
		}
		return streamService{srv, cal}, nil
	}, func(s streamService) { s.srv.Close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer svc.srv.Close()
	o.values["setup_s"] = setup

	src := &streamSource{frames: frames, sent: make([]time.Time, n)}
	seg := &streamSegmenter{srv: svc.srv, frameOf: make(map[*tensor.Tensor]int, n),
		start: make([]time.Time, n), end: make([]time.Time, n), stats: make([]serve.RequestStat, n)}
	for i, f := range frames {
		seg.frameOf[f.Fields] = i
	}
	events := newDigest()
	p, err := stream.New(seg, stream.Config{
		Source: src, FPS: streamFPS, MaxFrames: n,
		Policy: stream.PolicyBlock, QueueDepth: streamQueue, MinPixels: streamMinPixels,
		OnEvent: func(e stream.Event) {
			events.add(uint64(e.Frame))
			events.add(uint64(e.Type[0]) | uint64(e.Class[0])<<8)
			events.addF(e.Y)
			events.addF(e.X)
		},
	})
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if rc.trace {
		rec = newRecorder()
	}
	before := readRuntime()
	res, err := p.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	after := readRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	st := res.Stats
	srvStats := svc.srv.Stats()
	_, queuePeak := p.QueueDepth()

	// Latency runs from each frame's due time in the producer's schedule
	// to the frame's mask coming back from the server.
	origin := src.sent[0]
	sent := make([]time.Duration, n)
	for i, t := range src.sent {
		sent[i] = t.Sub(origin)
	}
	due := pacedSchedule(sent, time.Second/streamFPS)
	w0 := due[warmFrames]
	var lat, late, wait, traced, untraced []float64
	for i := warmFrames; i < n; i++ {
		d := ms(seg.end[i].Sub(origin) - due[i])
		lat = append(lat, d)
		late = append(late, ms(sent[i]-due[i]))
		wait = append(wait, ms(seg.stats[i].QueueWait))
		if tracedAt(due[i] - w0) {
			traced = append(traced, d)
			root := rec.add("stream.frame", int64(i), -1, origin.Add(due[i]), seg.end[i])
			rec.add("stream.queue", int64(i), root, src.sent[i], seg.start[i])
			rec.add("serve.segment", int64(i), root, seg.start[i], seg.end[i])
		} else {
			untraced = append(untraced, d)
		}
	}
	window := seg.end[n-1].Sub(origin) - w0
	o.attempted = int(st.Produced) - warmFrames
	o.failed = int(st.Produced - st.Processed)
	o.values["throughput_per_s"] = float64(n-warmFrames) / window.Seconds()
	o.latencyMetrics(lat)
	o.values["peak_rss_mb"] = rss
	o.runtimeLayer(before, after, n)

	o.check("processed == produced", st.Processed == st.Produced && st.Produced == uint64(n),
		"%d produced, %d processed of %d frames", st.Produced, st.Processed, n)
	o.check("no drops under block policy", st.Dropped == 0, "%d dropped", st.Dropped)
	o.note("tracker: %d births, %d deaths, %d merges; events digest %s", st.Births, st.Deaths, st.Merges, events.sum())

	late95, _ := percentile(late, 0.95)
	o.values["stream.late_ms"] = late95
	o.values["stream.queue_peak"] = float64(queuePeak)
	o.values["serve.queue_wait_ms"] = median(wait)
	o.values["serve.mean_batch"] = srvStats.MeanBatch
	o.values["serve.batches"] = float64(srvStats.Batches)
	o.values["serve.exit_rate"] = srvStats.ExitRate
	o.values["serve.exited_tiles"] = float64(srvStats.ExitedTiles)
	o.values["serve.checked_tiles"] = float64(srvStats.ExitChecks)
	o.values["serve.decode_batch_ms"] = ms(srvStats.DecodeP50)
	o.values["serve.exit_batch_ms"] = ms(srvStats.ExitCheckP50)
	o.note("server: exit rate %.3f (%d of %d checked tiles exited), mean decode batch %.2f over %d batches",
		srvStats.ExitRate, srvStats.ExitedTiles, srvStats.ExitChecks, srvStats.MeanBatch, srvStats.Batches)

	if rc.trace {
		if err := replayStream(sm, svc.cal, frames[warmFrames:], rec, o); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		o.spans = rec.snapshot()
		o.traceOverhead(traced, untraced)
	}
	return o, nil
}

// replayStream serves streamReplayFrames frames the way a server replica
// does — exit scores for every tile, a full decode for the tiles that do
// not exit — and advances a tracker over the masks, recording a span per
// ExitScores, RunBatch and tracker update.
func replayStream(sm servingModel, cal exaclim.ExitCalibration, frames []*climate.Sample, rec *recorder, o *outcome) error {
	net, err := sm.network()
	if err != nil {
		return err
	}
	cfg := infer.Config{TileH: sm.tile, TileW: sm.tile, Overlap: streamOverlap, MaxBatch: streamMaxBatch}
	r, err := infer.NewRunner(infer.FromModel(net), cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	tiles, err := infer.Plan(streamH, streamW, cfg)
	if err != nil {
		return err
	}
	tracker := storms.NewTracker(streamW, float64(streamH)/5)
	var exitMs, decodeMs float64
	var updates []float64
	checkedN, decodedN := 0, 0
	var live poolGrowth
	scores := make([]float64, streamMaxBatch)
	for q := -1; q < streamReplayFrames && q < len(frames); q++ { // frame -1 warms the runner
		if q == 0 {
			live.start(r)
		}
		f := frames[max(q, 0)]
		mask := tensor.New(tensor.Shape{streamH, streamW})
		items := make([]infer.BatchItem, len(tiles))
		for i, t := range tiles {
			items[i] = infer.BatchItem{Fields: f.Fields, Tile: t, Mask: mask}
		}
		var decode []infer.BatchItem
		for _, b := range batches(items, streamMaxBatch) {
			start := time.Now()
			if err := r.ExitScores(b, scores, &cal.Head); err != nil {
				return err
			}
			end := time.Now()
			for i, it := range b {
				if scores[i] < cal.Threshold {
					infer.WriteBackground(it)
				} else {
					decode = append(decode, it)
				}
			}
			if q >= 0 {
				rec.add("infer.exit", int64(q), -1, start, end)
				exitMs += ms(end.Sub(start))
				checkedN += len(b)
			}
		}
		for _, b := range batches(decode, streamMaxBatch) {
			start := time.Now()
			if err := r.RunBatch(b); err != nil {
				return err
			}
			end := time.Now()
			if q >= 0 {
				rec.add("infer.decode", int64(q), -1, start, end)
				decodeMs += ms(end.Sub(start))
				decodedN += len(b)
			}
		}
		if q < 0 {
			continue
		}
		start := time.Now()
		tcs := storms.Extract(f.Fields, mask, climate.ClassTC, streamMinPixels)
		ars := storms.Extract(f.Fields, mask, climate.ClassAR, streamMinPixels)
		tracker.Advance(q, append(tcs, ars...))
		end := time.Now()
		rec.add("storms.update", int64(q), -1, start, end)
		updates = append(updates, ms(end.Sub(start)))
	}
	frames = frames[:min(streamReplayFrames, len(frames))]
	live.stop(r, len(frames), o)
	o.values["infer.exit_ms_per_tile"] = exitMs / float64(checkedN)
	if decodedN > 0 {
		o.values["infer.decode_ms_per_tile"] = decodeMs / float64(decodedN)
	}
	o.values["storms.update_ms"] = median(updates)
	o.note("replay: %d frames, %d tiles checked, %d decoded", len(frames), checkedN, decodedN)

	decodeG, err := inferenceGemms(net, net.Logits)
	if err != nil {
		return err
	}
	exitG, err := inferenceGemms(net, net.ExitTap)
	if err != nil {
		return err
	}
	o.values["tensor.gemm_gflops"] = replayGemms(append(exitG, decodeG...), rec)
	// Per frame, at the live run's exit rate: every tile is exit-checked
	// and the tiles that do not exit are decoded.
	exitRate := o.values["serve.exit_rate"]
	o.values["tensor.gemm_gflop_per_op"] = float64(len(tiles)) * (gflop(exitG) + (1-exitRate)*gflop(decodeG))
	return nil
}
