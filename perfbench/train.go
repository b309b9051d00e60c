package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/exaclim"
)

// train-summit: exaclim.SummitScale(6) — DeepLabv3+ tiny in FP16 with loss
// scaling, LARC, gradient lag 1, hybrid all-reduce over the Summit fabric
// and a radix-4 control tree — on a fixed 32×32 synthetic grid, with async
// checkpoints every trainCkptEvery steps. Synchronous training is a closed
// loop: one step's six samples at a time.
const (
	trainRanks       = 6
	trainGrid        = 32
	trainSamples     = 32
	trainSetupSteps  = 3  // set-up is New plus this many steps
	trainSetupReps   = 9  // set-ups timed per run; setup_s is their median
	trainCkptEvery   = 50 // snapshot cadence (steps)
	trainDigestLen   = 100
	trainReplaySteps = 24 // replayed steps of the traced run, after a warm-up of 4
)

func trainOptions(seed int64) []exaclim.Option {
	return append(exaclim.SummitScale(trainRanks),
		exaclim.WithSyntheticData(trainGrid, trainGrid, trainSamples, seed),
		exaclim.WithSeed(seed),
		exaclim.WithValidation(0))
}

func runTrainSummit(rc runConfig) (*outcome, error) {
	o := newOutcome()

	_, setup, err := medianSetup(trainSetupReps, func() (struct{}, error) {
		exp, err := exaclim.New(append(trainOptions(rc.seed), exaclim.WithSteps(trainSetupSteps))...)
		if err != nil {
			return struct{}{}, err
		}
		_, err = exp.Run(context.Background())
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.values["setup_s"] = setup

	ckptDir, err := os.MkdirTemp(rc.workdir, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)

	var rec *recorder
	if rc.trace {
		rec = newRecorder()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		ends          []time.Time
		stats         []exaclim.StepStat
		first, last   = -1, -1 // window: steps first+1 .. last
		before, after runtimeSample
	)
	begin := time.Now()
	obs := exaclim.ObserverFuncs{Step: func(s exaclim.StepStat) {
		now := time.Now()
		ends = append(ends, now)
		stats = append(stats, s)
		i := len(ends) - 1
		switch {
		case first < 0 && now.Sub(begin) >= warmup:
			first = i
			before = readRuntime()
		case first >= 0 && last < 0:
			if rc.trace && tracedAt(ends[i-1].Sub(ends[first])) {
				rec.add("exaclim.step", int64(s.Step), -1, ends[i-1], now)
			}
			if now.Sub(ends[first]) >= rc.window() {
				last = i
				after = readRuntime()
				cancel()
			}
		}
	}}
	exp, err := exaclim.New(append(trainOptions(rc.seed),
		exaclim.WithSteps(math.MaxInt32),
		exaclim.WithCheckpointDir(ckptDir),
		exaclim.WithCheckpointEvery(trainCkptEvery),
		exaclim.WithObserver(obs))...)
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("training: %w", err)
	}
	if last < 0 {
		return nil, fmt.Errorf("training stopped after %d steps, before the measured window ended", len(ends))
	}

	// Step k's wall time is the gap between the observer calls of steps
	// k-1 and k; a snapshot is captured after step k's observer call when
	// (k+1) is a multiple of the cadence, so its stall lands in step k+1.
	var lat, ckptLat, plainLat, traced, untraced []float64
	skipped, nonFinite := 0, 0
	overlap := 0.0
	for k := first + 1; k <= last; k++ {
		d := ms(ends[k].Sub(ends[k-1]))
		lat = append(lat, d)
		if stats[k].Step > 0 && stats[k].Step%trainCkptEvery == 0 {
			ckptLat = append(ckptLat, d)
		} else {
			plainLat = append(plainLat, d)
		}
		if tracedAt(ends[k-1].Sub(ends[first])) {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if stats[k].Skipped {
			skipped++
		}
		if math.IsNaN(stats[k].Loss) || math.IsInf(stats[k].Loss, 0) {
			nonFinite++
		}
		overlap += stats[k].OverlapFrac
	}
	steps := last - first
	o.attempted, o.failed = steps, nonFinite
	o.values["throughput_per_s"] = float64(steps*trainRanks) / ends[last].Sub(ends[first]).Seconds()
	o.latencyMetrics(lat)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.values["peak_rss_mb"] = rss

	// Output checks over every step the run took.
	allFinite := true
	dg := newDigest()
	for i, s := range stats {
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			allFinite = false
		}
		if i < trainDigestLen {
			dg.addF(s.Loss)
		}
	}
	firstLoss, finalLoss := stats[0].Loss, stats[len(stats)-1].Loss
	o.check("loss finite", allFinite, "%d steps", len(stats))
	o.check("final loss below first", finalLoss < firstLoss, "step 0 %.5f, step %d %.5f", firstLoss, len(stats)-1, finalLoss)
	if len(stats) > trainCkptEvery {
		o.check("async checkpoints committed", res.Checkpoints > 0, "%d snapshots", res.Checkpoints)
	}
	o.note("loss digest over steps 0..%d: %s", min(len(stats), trainDigestLen)-1, dg.sum())
	o.note("train-summit: %d steps in the window (%d skipped), %d steps in all", steps, skipped, len(stats))

	// Per-layer metrics the live run can give.
	o.values["core.steps"] = float64(steps)
	o.values["hpfloat.skipped_steps"] = float64(skipped)
	o.values["hpfloat.skip_frac"] = float64(skipped) / float64(steps)
	o.values["horovod.overlap_frac"] = overlap / float64(steps)
	o.values["tensor.pool_allocs_per_step"] = float64(stats[last].PoolAllocs-stats[first].PoolAllocs) / float64(steps)
	if n := float64(len(res.History)); n > 0 {
		cp := res.ControlPlane
		o.values["horovod.buckets_per_step"] = float64(cp.Batches) / n
		o.values["horovod.ctl_msgs_per_step"] = float64(cp.CtlSent+cp.CtlReceived) / n
		o.values["mpi.wire_kb_per_step"] = float64(cp.WireBytes) / n / 1024
	}
	if len(ckptLat) > 0 {
		o.values["models.ckpt_stall_ms"] = median(ckptLat) - median(plainLat)
	}
	o.runtimeLayer(before, after, steps)

	if rc.trace {
		if err := replayTrain(rc.seed, trainReplaySteps, rec, o); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		o.spans = rec.snapshot()
		o.traceOverhead(traced, untraced)
	}
	return o, nil
}
