package baselines

import (
	"math"

	"chameleon/internal/cl"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// SLDA is deep streaming linear discriminant analysis (Hayes & Kanan, 2020):
// a non-parametric classifier over pooled deep features that maintains
// per-class running means and a shared streaming covariance matrix, and
// classifies with the precision-weighted nearest-class-mean rule
// score_c = w_cᵀ x + b_c, w_c = Λ μ_c, b_c = −½ μ_cᵀ Λ μ_c, Λ = ((1−ε)Σ+εI)⁻¹.
//
// The O(d³) matrix inversion is the method's hardware Achilles' heel the
// paper exploits in Table II; InversionCount exposes how often it ran so the
// hardware models can charge for it.
type SLDA struct {
	dim     int
	classes int
	means   *tensor.Tensor // [classes, dim]
	counts  []float64
	cov     *tensor.Tensor // [dim, dim] streaming covariance (scatter/n)
	n       float64
	// w caches the per-class score weights w_c = Λ μ_c as rows of a
	// [classes, dim] matrix, with bias_c = −½ μ_cᵀ w_c alongside; wRows holds
	// per-class views into w so the prediction hot loop allocates nothing.
	// Λ and w depend on the current means and covariance, so stale is raised
	// on every Observe and by checkpoint restore, and the next prediction
	// inverts the current covariance.
	w         *tensor.Tensor
	wRows     []*tensor.Tensor
	bias      []float64
	stale     bool
	inversion int
}

// sldaShrinkage is ε in Λ = ((1−ε)Σ + εI)⁻¹.
const sldaShrinkage = 1e-2

// NewSLDA creates a streaming LDA over pooled latents of the given dimension
// and class count.
func NewSLDA(dim, classes int, cfg Config) *SLDA {
	s := &SLDA{
		dim:     dim,
		classes: classes,
		means:   tensor.New(classes, dim),
		counts:  make([]float64, classes),
		cov:     tensor.New(dim, dim),
	}
	_ = cfg
	return s
}

// Name implements cl.Learner.
func (s *SLDA) Name() string { return "slda" }

// pool averages a [C,H,W] latent into a [C] feature vector (SLDA operates on
// pooled deep features).
func pool(z *tensor.Tensor) *tensor.Tensor {
	if z.NDim() == 1 {
		return z
	}
	return tensor.GlobalAvgPool(z)
}

// Observe implements cl.Learner: streaming mean/covariance updates.
func (s *SLDA) Observe(b cl.LatentBatch) {
	for _, smp := range b.Samples {
		x := pool(smp.Z)
		c := smp.Label
		// Covariance update uses the pre-update class mean (Hayes & Kanan
		// eq. 3): Σ ← (nΣ + δδᵀ·n/(n+1))/(n+1) with δ = x − μ_c.
		mu := s.means.Row(c)
		delta := tensor.Sub(x, mu)
		w := s.n / (s.n + 1)
		for i := 0; i < s.dim; i++ {
			di := delta.Data()[i]
			if di == 0 {
				continue
			}
			row := s.cov.Data()[i*s.dim : (i+1)*s.dim]
			f := float32(w) * di / float32(s.n+1)
			for j, dj := range delta.Data() {
				row[j] = row[j]*float32(s.n/(s.n+1)) + f*dj
			}
		}
		s.n++
		// Class-mean update.
		cnt := s.counts[c]
		for i := 0; i < s.dim; i++ {
			mu.Data()[i] = (mu.Data()[i]*float32(cnt) + x.Data()[i]) / float32(cnt+1)
		}
		s.counts[c]++
		s.stale = true
	}
}

// precision inverts the shrunk covariance: Λ = ((1−ε)Σ + εI)⁻¹.
func (s *SLDA) precision() *tensor.Tensor {
	a := tensor.New(s.dim, s.dim)
	eps := float32(sldaShrinkage)
	for i := 0; i < s.dim; i++ {
		for j := 0; j < s.dim; j++ {
			v := (1 - eps) * s.cov.Data()[i*s.dim+j]
			if i == j {
				v += eps
			}
			a.Data()[i*s.dim+j] = v
		}
	}
	inv, err := tensor.Inverse(a)
	if err != nil {
		// Shrinkage guarantees positive-definiteness in exact arithmetic; a
		// numerical failure falls back to the identity metric.
		inv = tensor.New(s.dim, s.dim)
		for i := 0; i < s.dim; i++ {
			inv.Data()[i*s.dim+i] = 1
		}
	}
	s.inversion++
	return inv
}

// ensureScores rebuilds Λ and the cached per-class weight rows and biases
// when anything they depend on moved, so w_c = Λ μ_c runs once per
// Observe→Predict transition rather than once per prediction. The scores are
// bit-identical to per-prediction scoring: the same MatVecInto/Dot kernels
// produce the same values, and IEEE a − 0.5b equals a + (−0.5·b) exactly.
func (s *SLDA) ensureScores() {
	if !s.stale && s.w != nil {
		return
	}
	lambda := s.precision()
	if s.w == nil {
		s.w = tensor.New(s.classes, s.dim)
		s.wRows = make([]*tensor.Tensor, s.classes)
		for c := range s.wRows {
			s.wRows[c] = s.w.Row(c)
		}
		s.bias = make([]float64, s.classes)
	}
	for c := 0; c < s.classes; c++ {
		if s.counts[c] == 0 {
			continue
		}
		mu := s.means.Row(c)
		tensor.MatVecInto(s.wRows[c], lambda, mu)
		s.bias[c] = -0.5 * tensor.Dot(mu, s.wRows[c])
	}
	s.stale = false
}

// classify scores one pooled feature against the cached weights.
func (s *SLDA) classify(x *tensor.Tensor) int {
	best, bestScore := 0, math.Inf(-1)
	for c := 0; c < s.classes; c++ {
		if s.counts[c] == 0 {
			continue
		}
		// score = w_cᵀ x − ½ μ_cᵀ w_c, with the second term precomputed.
		score := tensor.Dot(s.wRows[c], x) + s.bias[c]
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// Predict implements cl.Learner.
func (s *SLDA) Predict(z *tensor.Tensor) int {
	s.ensureScores()
	return s.classify(pool(z))
}

// PredictBatch implements cl.BatchPredictor: one cache refresh, then the pool
// shards over the worker pool — each sample writes only its own slot, and the
// per-sample scoring is the exact Predict loop, so any worker count matches
// the serial path bit for bit.
func (s *SLDA) PredictBatch(zs []*tensor.Tensor, out []int) {
	if len(zs) == 0 {
		return
	}
	s.ensureScores()
	parallel.For(len(zs), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = s.classify(pool(zs[i]))
		}
	})
}

// InversionCount reports how many O(d³) inversions this instance has run
// (hardware cost). It is not checkpointed, so it restarts at 0 on a restored
// learner.
func (s *SLDA) InversionCount() int { return s.inversion }

// Dim returns the pooled feature dimension (hardware cost input).
func (s *SLDA) Dim() int { return s.dim }
