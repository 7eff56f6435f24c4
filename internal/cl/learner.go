// Package cl defines the shared vocabulary of the continual-learning
// experiments: the Learner interface every method implements, latent
// extraction and caching over the frozen backbone, the online single-pass
// trainer, evaluation metrics (Acc_all, per-class and preferred-class
// accuracy), and a multi-seed runner reporting mean ± std as the paper does.
package cl

import (
	"fmt"

	"chameleon/internal/data"
	"chameleon/internal/mobilenet"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// LatentSample is one frame after the frozen feature extractor f(·): the
// latent activation plus its label and provenance. All continual learners in
// this repository consume latents — exactly the Latent Replay setting the
// paper builds on (methods that conceptually store raw images, such as ER,
// still learn on latents because f is frozen; only their *memory accounting*
// differs, see internal/memcost).
type LatentSample struct {
	// Z is the latent activation, shape = backbone.LatentShape.
	Z *tensor.Tensor
	// Label is the class index.
	Label int
	// Domain is the acquisition condition of the source frame.
	Domain int
	// ID is the source sample's pool index.
	ID int
}

// LatentBatch is one online step.
type LatentBatch struct {
	Samples []LatentSample
	Index   int
	Domain  int
}

// Learner is an online continual learner. Observe is called once per
// incoming mini-batch in stream order (single pass); Predict classifies a
// latent. Implementations must be deterministic given their construction
// seed.
type Learner interface {
	// Name identifies the method ("chameleon", "er", ...).
	Name() string
	// Observe consumes one incoming mini-batch.
	Observe(b LatentBatch)
	// Predict returns the predicted class index of a latent.
	Predict(z *tensor.Tensor) int
}

// Finisher is an optional Learner extension invoked after the stream ends
// (e.g. the JOINT upper bound runs its offline epochs there).
type Finisher interface {
	Finish()
}

// BatchPredictor is an optional Learner extension: classify a whole slice of
// latents in one call, writing class indices into out[:len(zs)]. The batched
// path must be bit-identical to calling Predict per sample; it exists so
// evaluation can run as a handful of matrix kernels (which shard internally
// over internal/parallel) instead of thousands of tiny forward passes.
type BatchPredictor interface {
	PredictBatch(zs []*tensor.Tensor, out []int)
}

// Capabilities is the one-stop view of a Learner's optional extensions. Each
// field is nil when the learner does not implement the extension, so call
// sites branch on a field instead of repeating interface type asserts. Caps
// is the only sanctioned way to discover optional behaviour; new extensions
// get a field here rather than a fourth scattered assert.
type Capabilities struct {
	// Finisher runs the learner's post-stream hook (nil: nothing to finish).
	Finisher Finisher
	// BatchPredictor classifies latent slices in one call (nil: serial
	// Predict only).
	BatchPredictor BatchPredictor
	// Snapshotter saves/restores complete mutable state for crash-safe and
	// drain-to-checkpoint runs (nil: the learner cannot be checkpointed).
	Snapshotter Snapshotter
}

// Caps reports which optional extensions l implements.
func Caps(l Learner) Capabilities {
	var c Capabilities
	c.Finisher, _ = l.(Finisher)
	c.BatchPredictor, _ = l.(BatchPredictor)
	c.Snapshotter, _ = l.(Snapshotter)
	return c
}

// PredictInto classifies every latent in zs into out[:len(zs)], dispatching
// to the learner's batched implementation when it has one. The serial loop is
// the default adapter for legacy learners (and test doubles), which only need
// to implement Predict. A too-short out is reported as an error (serve-path
// entry points feed client-controlled sizes here, so the length check must
// not panic).
func PredictInto(l Learner, zs []*tensor.Tensor, out []int) error {
	if len(out) < len(zs) {
		return fmt.Errorf("cl: PredictInto out length %d, want at least %d", len(out), len(zs))
	}
	if bp := Caps(l).BatchPredictor; bp != nil {
		bp.PredictBatch(zs, out)
		return nil
	}
	for i, z := range zs {
		out[i] = l.Predict(z)
	}
	return nil
}

// LatentSet caches the frozen-backbone features of a dataset so that every
// method and seed shares one extraction pass (f is identical for all).
type LatentSet struct {
	Backbone *mobilenet.Model
	Dataset  *data.Dataset
	// Train and Test are latents indexed by data.Sample.ID.
	Train []LatentSample
	Test  []LatentSample
}

// NewLatentSet extracts latents for the full train and test pools.
func NewLatentSet(m *mobilenet.Model, ds *data.Dataset) (*LatentSet, error) {
	if m.Cfg.Resolution != ds.Cfg.Resolution {
		return nil, fmt.Errorf("cl: backbone resolution %d != dataset resolution %d", m.Cfg.Resolution, ds.Cfg.Resolution)
	}
	if m.Cfg.NumClasses < ds.Cfg.NumClasses {
		return nil, fmt.Errorf("cl: backbone has %d classes, dataset needs %d", m.Cfg.NumClasses, ds.Cfg.NumClasses)
	}
	ls := &LatentSet{Backbone: m, Dataset: ds}
	ls.Train = extractPool(m, ds.Train)
	ls.Test = extractPool(m, ds.Test)
	return ls, nil
}

// extractPool runs the frozen extractor over a sample pool, sharding samples
// across the worker pool. The backbone is shared read-only: eval-mode Forward
// allocates all activations locally and caches nothing (see nn's Layer
// contract and TestConcurrentExtraction), and each sample writes only its own
// output slot, so any worker count produces bit-identical latents.
func extractPool(m *mobilenet.Model, pool []data.Sample) []LatentSample {
	out := make([]LatentSample, len(pool))
	parallel.For(len(pool), 1, func(lo, hi int) {
		for _, sm := range pool[lo:hi] {
			out[sm.ID] = LatentSample{Z: m.ExtractLatent(sm.Image), Label: sm.Label, Domain: sm.Domain, ID: sm.ID}
		}
	})
	return out
}

// LatentStream adapts a data.Stream to emit cached latents.
type LatentStream struct {
	inner *data.Stream
	set   *LatentSet
}

// Stream opens a latent stream over the cached set.
func (ls *LatentSet) Stream(seed int64, opt data.StreamOptions) *LatentStream {
	return &LatentStream{inner: ls.Dataset.Stream(seed, opt), set: ls}
}

// Next returns the next latent batch.
func (s *LatentStream) Next() (LatentBatch, bool) {
	b, ok := s.inner.Next()
	if !ok {
		return LatentBatch{}, false
	}
	out := LatentBatch{Index: b.Index, Domain: b.Domain, Samples: make([]LatentSample, len(b.Samples))}
	for i, sm := range b.Samples {
		out.Samples[i] = s.set.Train[sm.ID]
	}
	return out, true
}

// Total returns the number of samples the stream will emit.
func (s *LatentStream) Total() int { return s.inner.Total() }

// PreferredClasses exposes the underlying stream's current preference set.
func (s *LatentStream) PreferredClasses() []int { return s.inner.PreferredClasses() }
