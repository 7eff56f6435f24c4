package baselines

import (
	"chameleon/internal/cl"
	"chameleon/internal/tensor"
)

// EWCPP is online Elastic Weight Consolidation (EWC++, Chaudhry et al. 2018):
// a running diagonal Fisher information estimate F and a parameter anchor θ*
// penalise movement away from weights important to previous domains:
// L = CE + λ·Σ F_i (θ_i − θ*_i)². The Fisher is an exponential moving
// average of squared gradients; the anchor refreshes at domain boundaries.
type EWCPP struct {
	head   *cl.Head
	cfg    Config
	fisher []*tensor.Tensor
	anchor []*tensor.Tensor
	// gamma is the Fisher EMA decay.
	gamma      float64
	lastDomain int
	seen       bool
}

// NewEWCPP creates the EWC++ learner.
func NewEWCPP(head *cl.Head, cfg Config) *EWCPP {
	cfg = cfg.withDefaults()
	e := &EWCPP{head: head, cfg: cfg, gamma: 0.95, lastDomain: -1}
	for _, p := range head.Params() {
		e.fisher = append(e.fisher, tensor.New(p.Data.Shape()...))
	}
	e.anchor = head.Snapshot()
	return e
}

// Name implements cl.Learner.
func (e *EWCPP) Name() string { return "ewcpp" }

// Predict implements cl.Learner.
func (e *EWCPP) Predict(z *tensor.Tensor) int { return e.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (e *EWCPP) PredictBatch(zs []*tensor.Tensor, out []int) { e.head.PredictBatch(zs, out) }

// Observe implements cl.Learner.
func (e *EWCPP) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	if e.seen && b.Domain != e.lastDomain {
		// Domain boundary: consolidate — the anchor becomes the current
		// weights, protected by the accumulated Fisher.
		e.anchor = e.head.Snapshot()
	}
	e.lastDomain, e.seen = b.Domain, true

	e.head.ZeroGrad()
	e.head.Accumulate(b.Samples, cl.Loss{})
	params := e.head.Params()
	n := float32(len(b.Samples))
	for i, p := range params {
		g := p.Grad.Data()
		f := e.fisher[i].Data()
		a := e.anchor[i].Data()
		w := p.Data.Data()
		for j := range g {
			g[j] /= n
			// Fisher EMA over the data-loss gradient (before the penalty).
			f[j] = float32(e.gamma)*f[j] + (1-float32(e.gamma))*g[j]*g[j]
			// Quadratic penalty gradient.
			g[j] += float32(2*e.cfg.Lambda) * f[j] * (w[j] - a[j])
		}
	}
	e.head.Step(1)
}

// LwF is Learning without Forgetting (Li & Hoiem): at each domain boundary
// the current model is frozen as a teacher; subsequent training distils the
// teacher's soft responses on the *incoming* data alongside the hard labels,
// with no stored samples at all.
type LwF struct {
	head       *cl.Head
	cfg        Config
	teacher    []*tensor.Tensor // teacher parameter snapshot
	hasTeacher bool
	lastDomain int
	seen       bool
	rowBuf     []cl.LossRow // reusable per-row objective
}

// NewLwF creates the LwF learner.
func NewLwF(head *cl.Head, cfg Config) *LwF {
	return &LwF{head: head, cfg: cfg.withDefaults(), lastDomain: -1}
}

// Name implements cl.Learner.
func (l *LwF) Name() string { return "lwf" }

// Predict implements cl.Learner.
func (l *LwF) Predict(z *tensor.Tensor) int { return l.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (l *LwF) PredictBatch(zs []*tensor.Tensor, out []int) { l.head.PredictBatch(zs, out) }

// Observe implements cl.Learner.
func (l *LwF) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	if l.seen && b.Domain != l.lastDomain {
		l.teacher = l.head.Snapshot()
		l.hasTeacher = true
	}
	l.lastDomain, l.seen = b.Domain, true

	// Each row trains on its hard label plus, once a teacher exists, the
	// teacher's softened response (Hinton's T²·λ scaling) — one packed step
	// averaged over the batch. Teacher logits must be computed with the
	// snapshot weights: swap in, evaluate, swap back.
	var loss cl.Loss
	if l.hasTeacher {
		current := l.head.Snapshot()
		l.head.Restore(l.teacher)
		t := l.cfg.Temperature
		rows := l.rowBuf[:0]
		for _, s := range b.Samples {
			rows = append(rows, cl.LossRow{CE: 1, Aux: l.cfg.Lambda * t * t, Target: l.head.Logits(s.Z).Clone()})
		}
		l.head.Restore(current)
		l.rowBuf = rows
		loss = cl.Loss{Rows: rows, Temperature: t}
	}
	l.head.Train(b.Samples, loss)
}
