package main

import (
	"fmt"
	"sync"
	"time"

	"repro/exaclim"
	"repro/internal/allreduce"
	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/horovod"
	"repro/internal/hpfloat"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// replayWarmSteps are replayed before spans are recorded, so executor
// plans and pools are built.
const replayWarmSteps = 4

// Hyper-parameters of exaclim.SummitScale(6) that the replay rebuilds by
// hand: at the 6-rank anchor the cube-law learning rate is 2e-3.
const (
	summitLR        = 2e-3
	summitLARCTrust = 0.01
	summitLossScale = 1024
	summitRadix     = 4
	summitStepSecs  = 0.9
)

// replayTrain re-runs train-summit's training step layer by layer at the
// workload's exact shapes — data → forward → backward → horovod exchange
// over the same 6-rank Summit fabric → optimizer — recording a span around
// each call on rank 0, then encodes rank 0's snapshot. It mirrors the
// trainer's step (internal/core) using only the layers' public functions.
func replayTrain(seed int64, steps int, rec *recorder, o *outcome) error {
	ds := exaclim.SyntheticDataset(trainGrid, trainGrid, trainSamples, seed)
	weights := loss.ClassWeights(ds.ClassFrequencies(min(ds.Size, 8)), loss.InverseSqrtFrequency)
	fabric := simnet.Summit(trainRanks / 6)

	var mu sync.Mutex
	var firstErr error
	mpi.NewWorld(fabric).Run(func(c *mpi.Comm) {
		r := (*recorder)(nil)
		if c.Rank() == 0 {
			r = rec
		}
		if err := replayRank(c, fabric, ds, weights, seed, steps, r, o); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

func replayRank(c *mpi.Comm, fabric simnet.Fabric, ds *climate.Dataset, weights []float32,
	seed int64, steps int, rec *recorder, o *outcome) error {

	net, err := models.BuildDeepLab(models.TinyDeepLab(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: trainGrid, Width: trainGrid, Seed: seed + 1,
	}))
	if err != nil {
		return err
	}
	params := net.Graph.Params()
	index := make(map[*graph.Node]int, len(params))
	sizes := make([]int, len(params))
	for i, p := range params {
		index[p] = i
		sizes[i] = p.Shape.NumElements()
	}
	sess := horovod.NewSession(c, allreduce.NewHybrid(fabric), horovod.Tree(summitRadix))
	defer sess.Close()
	sess.PlanBuckets(sizes)
	optimizer := opt.NewLag(opt.NewLARC(opt.NewSGD(summitLR, 0.9, 1e-4), summitLARCTrust), 1)
	scaler := &hpfloat.LossScaler{Scale: summitLossScale}

	pf := climate.NewPrefetcherAt(ds, ds.Indices(climate.Train), seed, c.Rank(), 2, 0)
	defer pf.Stop()
	pool := tensor.NewPool()
	ex := graph.NewPooledExecutor(net.Graph, graph.FP16, seed, pool)
	defer graph.ReleaseOpCaches(net.Graph)
	images := tensor.New(net.Images.Shape)
	labels := tensor.New(net.Labels.Shape)
	wmap := tensor.New(net.Weights.Shape)
	feeds := map[*graph.Node]*tensor.Tensor{net.Images: images, net.Labels: labels, net.Weights: wmap}

	grads := make([][]float32, len(params))
	pushed := make([]bool, len(params))
	ex.OnParamGrad = func(p *graph.Node, g *tensor.Tensor) {
		id := index[p]
		grads[id], pushed[id] = g.Data(), true
		sess.Push(horovod.TensorID(id), g.Data())
	}
	ps := make([]opt.Param, len(params))
	lossBuf := make([]float32, 1)

	for step := 0; step < steps+replayWarmSteps; step++ {
		r := rec
		if step < replayWarmSteps {
			r = nil
		}
		unit := int64(step)
		root := r.open("core.step", unit, -1)
		timed := func(name string, f func() error) error {
			start := time.Now()
			err := f()
			r.add(name, unit, root, start, time.Now())
			return err
		}

		// Feeding the sample is the step's own (core) time.
		var sample *climate.Sample
		timed("climate.next", func() error { sample = pf.Next(); return nil })
		copy(images.Data(), sample.Fields.Data())
		copy(labels.Data(), sample.Labels.Data())
		loss.WeightMapInto(labels, weights, wmap)
		pf.Recycle(sample)

		ex.Reseed(seed + int64(step)*31 + int64(c.Rank()))
		ex.SetLossScale(scaler.Scale)
		clear(pushed)
		sess.BeginStep(0, summitStepSecs)
		if err := timed("graph.forward", func() error { return ex.Forward(feeds) }); err != nil {
			return err
		}
		lossBuf[0] = ex.Value(net.Loss).Data()[0]
		if err := timed("graph.backward", func() error { return ex.Backward(net.Loss) }); err != nil {
			return err
		}
		// A parameter the backward pass produced no gradient for still
		// takes part in the exchange, with zeros.
		for i, p := range params {
			if !pushed[i] {
				grads[i] = make([]float32, p.Shape.NumElements())
				sess.Push(horovod.TensorID(i), grads[i])
			}
		}
		timed("horovod.exposed", func() error { sess.Wait(); return nil })

		overflow := false
		timed("hpfloat.unscale", func() error {
			factor := float32(1.0/float64(c.Size())) / float32(scaler.Scale)
			for i := range params {
				if !tensor.ScaleAllFinite(factor, grads[i]) {
					overflow = true
				}
			}
			return nil
		})
		if scaler.Update(overflow) {
			for i, p := range params {
				ps[i] = opt.Param{Name: p.Label, Value: p.Value, Grad: tensor.FromSlice(p.Shape, grads[i])}
			}
			timed("opt.update", func() error { optimizer.Step(ps); return nil })
		}
		timed("mpi.loss_allreduce", func() error { c.Allreduce(lossBuf, mpi.Ring); return nil })
		r.close(root)
	}

	if rec == nil {
		return nil
	}
	// Snapshot encode, as the async checkpoint writer does it: capture the
	// full training state, then encode it (to a byte counter, not a disk).
	state := &models.TrainState{Ranks: c.Size(), Seed: seed, GlobalBatch: c.Size(),
		Cursors: make([]uint64, c.Size())}
	var size int64
	for i := 0; i < 5; i++ {
		start := time.Now()
		state.Step = uint64(steps + replayWarmSteps)
		if state.Params, err = models.CaptureParamsInto(net.Graph, state.Params); err != nil {
			return err
		}
		state.Opt = optimizer.CaptureStateInto(state.Opt)
		sc := scaler.CaptureState()
		state.Scaler = &sc
		cw := &countingWriter{}
		if err := state.EncodeSnapshot(cw); err != nil {
			return fmt.Errorf("encode snapshot: %w", err)
		}
		rec.add("models.snapshot", int64(i), -1, start, time.Now())
		size = cw.n
	}

	spans := rec.snapshot()
	total := spanStats(spans, false)
	self := spanStats(spans, true)
	set := func(metric, spanName string, from map[string][]float64) {
		if v, ok := from[spanName]; ok {
			o.values[metric] = median(v)
		}
	}
	set("climate.next_ms", "climate.next", total)
	set("graph.forward_ms", "graph.forward", total)
	set("graph.backward_ms", "graph.backward", total)
	set("horovod.exposed_ms", "horovod.exposed", total)
	set("opt.update_ms", "opt.update", total)
	set("core.self_ms", "core.step", self)
	o.values["models.snapshot_mb"] = float64(size) / (1 << 20)
	o.note("replay: %d steps of rank 0; snapshot encode %.3f ms median, %d bytes",
		steps, median(total["models.snapshot"]), size)

	gemms := convGemms(net.Graph, true)
	o.values["tensor.gemm_gflops"] = replayGemms(gemms, rec)
	o.values["tensor.gemm_gflop_per_op"] = gflop(gemms) * float64(c.Size()) // per step, all ranks
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
