package main

import (
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gemmShape is one tensor.Gemm call: C[m×n] = op(A)·op(B) with inner
// dimension k.
type gemmShape struct {
	transA, transB bool
	m, n, k        int
}

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.n) * float64(s.k) }

// convGemms lists the GEMMs of one pass over the graph's convolutions in
// their implicit-GEMM form, per image of the batch: the forward product
// W[cout×k]·cols[k×oh·ow] (k = cin·kh·kw) and, with backward, the weight
// gradient dY·colsᵀ and the data gradient Wᵀ·dY.
func convGemms(g *graph.Graph, backward bool) []gemmShape {
	var out []gemmShape
	for _, n := range g.Nodes() {
		if _, ok := n.Op.(*nn.Conv2D); !ok || n.Kind != graph.KindOp {
			continue
		}
		x, w := n.Inputs[0].Shape, n.Inputs[1].Shape
		m, cols, k := w[0], n.Shape[2]*n.Shape[3], x[1]*w[2]*w[3]
		for b := 0; b < x[0]; b++ {
			out = append(out, gemmShape{m: m, n: cols, k: k})
			if backward {
				out = append(out,
					gemmShape{transB: true, m: m, n: k, k: cols},
					gemmShape{transA: true, m: k, n: cols, k: m})
			}
		}
	}
	return out
}

// gflop is the work of one pass over the shapes, in GFLOP.
func gflop(shapes []gemmShape) float64 {
	var f float64
	for _, s := range shapes {
		f += s.flops()
	}
	return f / 1e9
}

// replayGemms runs the shapes through tensor.Gemm, one pass per span,
// until passes have taken gemmReplayTime, and returns the rate of the
// median pass in GFLOP/s.
func replayGemms(shapes []gemmShape, rec *recorder) float64 {
	const gemmReplayTime = 300 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32()*2 - 1
		}
		return v
	}
	type operands struct{ a, b, c []float32 }
	ops := make([]operands, len(shapes))
	for i, s := range shapes {
		ops[i] = operands{fill(s.m * s.k), fill(s.k * s.n), make([]float32, s.m*s.n)}
	}
	var passes []float64
	begin := time.Now()
	for p := 0; time.Since(begin) < gemmReplayTime || p < 5; p++ {
		start := time.Now()
		for i, s := range shapes {
			lda, ldb := s.k, s.n
			if s.transA {
				lda = s.m
			}
			if s.transB {
				ldb = s.k
			}
			tensor.Gemm(s.transA, s.transB, s.m, s.n, s.k, 1, ops[i].a, lda, ops[i].b, ldb, 0, ops[i].c, s.n)
		}
		end := time.Now()
		rec.add("tensor.gemm", int64(p), -1, start, end)
		passes = append(passes, end.Sub(start).Seconds())
	}
	return gflop(shapes) / median(passes)
}
