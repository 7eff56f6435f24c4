package cl

import (
	"math"
	"testing"

	"chameleon/internal/data"
	"chameleon/internal/mobilenet"
	"chameleon/internal/tensor"
)

// testEnv builds a tiny dataset + backbone + latent set shared by tests.
func testEnv(t *testing.T) *LatentSet {
	t.Helper()
	cfg := data.Config{
		Name: "tiny", NumClasses: 4, NumDomains: 3, TestDomains: []int{2},
		Resolution: 16, SessionsPerClassDomain: 1, FramesPerSession: 4,
		TestFramesPerClassDomain: 3, Severity: 0.8, Seed: 1,
	}
	ds, err := data.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mobilenet.Config{Width: 0.25, Resolution: 16, NumClasses: 4, LatentLayer: 5, Head: mobilenet.HeadMLP, HiddenDim: 16, Seed: 99}
	m, err := mobilenet.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewLatentSet(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestNewLatentSetValidation(t *testing.T) {
	ds, _ := data.Generate(data.Config{
		Name: "tiny", NumClasses: 4, NumDomains: 3, TestDomains: []int{2},
		Resolution: 16, SessionsPerClassDomain: 1, FramesPerSession: 2,
		TestFramesPerClassDomain: 1, Severity: 0.8, Seed: 1,
	})
	m, _ := mobilenet.New(mobilenet.Config{Width: 0.25, Resolution: 32, NumClasses: 4, LatentLayer: 5, Head: mobilenet.HeadMLP, Seed: 1})
	if _, err := NewLatentSet(m, ds); err == nil {
		t.Fatal("expected resolution mismatch error")
	}
	m2, _ := mobilenet.New(mobilenet.Config{Width: 0.25, Resolution: 16, NumClasses: 2, LatentLayer: 5, Head: mobilenet.HeadMLP, Seed: 1})
	if _, err := NewLatentSet(m2, ds); err == nil {
		t.Fatal("expected class-count mismatch error")
	}
}

func TestLatentSetShapesAndAlignment(t *testing.T) {
	set := testEnv(t)
	if len(set.Train) != set.Dataset.NumTrain() || len(set.Test) != set.Dataset.NumTest() {
		t.Fatal("latent counts mismatch")
	}
	for i, ls := range set.Train {
		if ls.ID != i {
			t.Fatal("train latents not ID-aligned")
		}
		if ls.Label != set.Dataset.Train[i].Label {
			t.Fatal("label misaligned")
		}
		for d, want := range set.Backbone.LatentShape {
			if ls.Z.Dim(d) != want {
				t.Fatalf("latent shape %v", ls.Z.Shape())
			}
		}
	}
}

func TestLatentStreamMatchesDataStream(t *testing.T) {
	set := testEnv(t)
	st := set.Stream(5, data.StreamOptions{BatchSize: 3})
	total := 0
	for {
		b, ok := st.Next()
		if !ok {
			break
		}
		for _, s := range b.Samples {
			if s.Label != set.Train[s.ID].Label {
				t.Fatal("stream emitted mismatched latent")
			}
			if s.Domain != b.Domain {
				t.Fatal("batch domain mismatch")
			}
		}
		total += len(b.Samples)
	}
	if total != st.Total() {
		t.Fatalf("emitted %d, Total %d", total, st.Total())
	}
}

// constLearner always predicts a fixed class.
type constLearner struct{ class int }

func (c constLearner) Name() string                 { return "const" }
func (c constLearner) Observe(LatentBatch)          {}
func (c constLearner) Predict(z *tensor.Tensor) int { return c.class }

func TestEvaluateConstLearner(t *testing.T) {
	set := testEnv(t)
	res := Evaluate(constLearner{class: 0}, set.Test)
	// 4 balanced classes -> 25% accuracy.
	if math.Abs(res.AccAll-0.25) > 1e-9 {
		t.Fatalf("AccAll = %v", res.AccAll)
	}
	if res.PerClass[0] != 1 || res.PerClass[1] != 0 {
		t.Fatalf("PerClass = %v", res.PerClass)
	}
}

func TestEvaluateEmptyTest(t *testing.T) {
	res := Evaluate(constLearner{}, nil)
	if !math.IsNaN(res.AccAll) {
		t.Fatal("empty test should give NaN")
	}
}

func TestPreferredAccuracy(t *testing.T) {
	test := []LatentSample{{Label: 0}, {Label: 0}, {Label: 1}}
	per := []float64{1.0, 0.0}
	if got := PreferredAccuracy(per, test, []int{0}); got != 1 {
		t.Fatalf("pref acc = %v", got)
	}
	if got := PreferredAccuracy(per, test, []int{0, 1}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("pref acc = %v", got)
	}
	if got := PreferredAccuracy(per, test, nil); !math.IsNaN(got) {
		t.Fatalf("empty preferred should be NaN, got %v", got)
	}
}

func TestSummarize(t *testing.T) {
	runs := []Result{
		{Method: "m", AccAll: 0.5, PreferredAcc: math.NaN()},
		{Method: "m", AccAll: 0.7, PreferredAcc: 0.9},
	}
	s := Summarize(runs)
	if math.Abs(s.MeanAcc-0.6) > 1e-9 {
		t.Fatalf("mean = %v", s.MeanAcc)
	}
	if math.Abs(s.StdAcc-math.Sqrt(0.02)) > 1e-9 {
		t.Fatalf("std = %v", s.StdAcc)
	}
	if math.Abs(s.MeanPreferred-0.9) > 1e-9 {
		t.Fatalf("pref mean = %v", s.MeanPreferred)
	}
	if Summarize(nil).Method != "" {
		t.Fatal("empty summarize should be zero")
	}
}

// headLearner is a minimal Learner over a Head: plain finetuning.
type headLearner struct{ h *Head }

func (l *headLearner) Name() string                 { return "head" }
func (l *headLearner) Observe(b LatentBatch)        { l.h.TrainCEOn(b.Samples) }
func (l *headLearner) Predict(z *tensor.Tensor) int { return l.h.Predict(z) }

func TestHeadLearnsAboveChance(t *testing.T) {
	// The tiny random-feature env is too weak for held-out-domain
	// generalization (that is asserted on the pretrained testenv pipeline),
	// so this test checks the online head fits the *seen* pool above chance.
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{LR: 0.05, Seed: 3})
	l := &headLearner{h: h}
	st := set.Stream(3, data.StreamOptions{BatchSize: 2})
	res := RunOnline(l, st, set.Test)
	if res.SamplesSeen != st.Total() {
		t.Fatalf("consumed %d of %d", res.SamplesSeen, st.Total())
	}
	// A single online pass over 48 samples is not enough to fit from a cold
	// start; give the head a few more passes before asserting it can learn.
	for ep := int64(0); ep < 6; ep++ {
		st := set.Stream(4+ep, data.StreamOptions{BatchSize: 2})
		for {
			b, ok := st.Next()
			if !ok {
				break
			}
			l.Observe(b)
		}
	}
	trainRes := Evaluate(l, set.Train)
	if trainRes.AccAll <= 0.4 {
		t.Fatalf("head failed to fit seen data on 4 classes: %v", trainRes.AccAll)
	}
}

func TestHeadSeedsDiffer(t *testing.T) {
	set := testEnv(t)
	a := NewHead(set.Backbone, HeadConfig{Seed: 1})
	b := NewHead(set.Backbone, HeadConfig{Seed: 2})
	z := set.Train[0].Z
	la, lb := a.Logits(z), b.Logits(z)
	same := true
	for i := range la.Data() {
		if la.Data()[i] != lb.Data()[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different head seeds must give different initialisation")
	}
}

func TestHeadSnapshotRestore(t *testing.T) {
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{LR: 0.1, Seed: 4})
	z := set.Train[0].Z
	before := h.Logits(z).Clone()
	snap := h.Snapshot()
	h.TrainCEOn([]LatentSample{{Z: z, Label: 1}})
	changed := false
	after := h.Logits(z)
	for i := range after.Data() {
		if after.Data()[i] != before.Data()[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("training did not change logits")
	}
	h.Restore(snap)
	restored := h.Logits(z)
	for i := range restored.Data() {
		if restored.Data()[i] != before.Data()[i] {
			t.Fatal("Restore did not recover snapshot")
		}
	}
}

// TestHeadAccumulateSoftAndMSE drives the grad-only Accumulate + Step pair
// with a target-only objective (CE weight 0): distillation and logit MSE
// must each pull the head toward its target.
func TestHeadAccumulateSoftAndMSE(t *testing.T) {
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{LR: 0.05, Seed: 5})
	one := set.Train[:1]
	z := one[0].Z
	teacher := h.Logits(z).Clone()
	teacher.Data()[0] += 2
	// Distilling toward the teacher must reduce soft loss over steps.
	soft := Loss{Rows: []LossRow{{Aux: 4, Target: teacher}}, Temperature: 2}
	var first, last float64
	for i := 0; i < 20; i++ {
		h.ZeroGrad()
		loss := h.Accumulate(one, soft)
		h.Step(1)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("soft loss did not decrease: %v -> %v", first, last)
	}
	// Same for the MSE consistency loss.
	h2 := NewHead(set.Backbone, HeadConfig{LR: 0.05, Seed: 6})
	target := h2.Logits(z).Clone()
	target.Data()[1] += 1
	first, last = 0, 0
	mse := Loss{Rows: []LossRow{{Aux: 1, Target: target}}}
	for i := 0; i < 20; i++ {
		h2.ZeroGrad()
		loss := h2.Accumulate(one, mse)
		h2.Step(1)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("mse loss did not decrease: %v -> %v", first, last)
	}
}

func TestMultiSeedProducesSpread(t *testing.T) {
	set := testEnv(t)
	s := MultiSeed(set, data.StreamOptions{BatchSize: 2}, func(seed int64) Learner {
		return &headLearner{h: NewHead(set.Backbone, HeadConfig{LR: 0.05, Seed: seed})}
	}, []int64{1, 2, 3})
	if len(s.Runs) != 3 {
		t.Fatalf("runs = %d", len(s.Runs))
	}
	if s.MeanAcc <= 0 || s.MeanAcc > 1 {
		t.Fatalf("mean acc = %v", s.MeanAcc)
	}
}

func TestSortedClasses(t *testing.T) {
	pool := []LatentSample{{Label: 3}, {Label: 1}, {Label: 3}}
	got := SortedClasses(pool)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("SortedClasses = %v", got)
	}
}
