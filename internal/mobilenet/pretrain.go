package mobilenet

import (
	"fmt"
	"math/rand"

	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// PretrainConfig controls the offline pretraining phase that substitutes the
// paper's ImageNet-pretrained backbone. The network is trained end to end
// (features included) on a *disjoint* synthetic class set drawn from the same
// generative family as the deployment data, then frozen.
type PretrainConfig struct {
	// Epochs is the number of passes over the pretraining pool.
	Epochs int
	// LR and Momentum parameterise the SGD optimizer.
	LR       float64
	Momentum float64
	// BatchSize is the gradient-accumulation size.
	BatchSize int
	// Seed drives shuffling and the BN calibration draw.
	Seed int64
}

// pretrainGradClip caps each parameter's gradient L2 norm per step; deep
// plain CNNs occasionally spike early in training and collapse to the
// trivial constant-logit optimum without it.
const pretrainGradClip = 5

// allParams returns the model's trainable AND frozen parameters (unwrapping
// Frozen), for the pretraining phase only.
func (m *Model) allParams() []*nn.Param {
	var out []*nn.Param
	for _, l := range m.Features.Layers {
		if f, ok := l.(*nn.Frozen); ok {
			out = append(out, f.Inner.Params()...)
		} else {
			out = append(out, l.Params()...)
		}
	}
	out = append(out, m.Head.Params()...)
	return out
}

// Pretrain trains the full network (features unfrozen for the duration) on
// the given images/labels with cross-entropy, then leaves the features
// frozen again (they were only ever exposed through allParams). It returns
// the final-epoch mean loss.
func (m *Model) Pretrain(images []*tensor.Tensor, labels []int, cfg PretrainConfig) (float64, error) {
	if len(images) == 0 || len(images) != len(labels) {
		return 0, fmt.Errorf("mobilenet: pretrain needs aligned images/labels, got %d/%d", len(images), len(labels))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	for i, y := range labels {
		if y < 0 || y >= m.Cfg.NumClasses {
			return 0, fmt.Errorf("mobilenet: pretrain label %d out of range at %d", y, i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := m.allParams()
	opt := nn.NewSGD(cfg.LR)
	opt.Momentum = cfg.Momentum
	opt.GradClip = pretrainGradClip

	sub := make([]*tensor.Tensor, len(images))
	for i := range sub {
		sub[i] = images[rng.Intn(len(images))]
	}
	if err := m.CalibrateBN(sub); err != nil {
		return 0, err
	}

	order := rng.Perm(len(images))
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		// Step decay: halve the learning rate for the final third of training.
		if cfg.Epochs >= 6 && ep == cfg.Epochs*2/3 {
			opt.LR *= 0.5
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		steps := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for _, p := range params {
				p.ZeroGrad()
			}
			var batchLoss float64
			for _, idx := range order[start:end] {
				z := m.Features.Forward(images[idx], true)
				logits := m.Head.Forward(z, true)
				loss, g := nn.CrossEntropy(logits, labels[idx])
				gz := m.Head.Backward(g)
				m.Features.Backward(gz)
				batchLoss += loss
			}
			inv := float32(1 / float64(end-start))
			for _, p := range params {
				p.Grad.Scale(inv)
				opt.StepParam(p)
			}
			epochLoss += batchLoss / float64(end-start)
			steps++
		}
		lastLoss = epochLoss / float64(steps)
	}
	return lastLoss, nil
}

// CopyFeaturesFrom transfers the frozen extractor's weights and BN running
// statistics from src into m. Both models must share the structural config
// (width, latent layer); class counts may differ — only features move.
func (m *Model) CopyFeaturesFrom(src *Model) error {
	if len(m.Features.Layers) != len(src.Features.Layers) {
		return fmt.Errorf("mobilenet: feature depth mismatch %d vs %d", len(m.Features.Layers), len(src.Features.Layers))
	}
	for i, dl := range m.Features.Layers {
		sl := src.Features.Layers[i]
		dp, sp := unwrapParams(dl), unwrapParams(sl)
		if len(dp) != len(sp) {
			return fmt.Errorf("mobilenet: layer %d param count mismatch", i)
		}
		for j := range dp {
			if dp[j].Data.Len() != sp[j].Data.Len() {
				return fmt.Errorf("mobilenet: layer %d param %q size mismatch", i, dp[j].Name)
			}
			dp[j].Data.CopyFrom(sp[j].Data)
		}
		if dbn, sbn := asBatchNorm(dl), asBatchNorm(sl); dbn != nil && sbn != nil {
			mean, vari := sbn.Stats()
			dbn.SetStats(mean, vari)
		}
	}
	return nil
}

func unwrapParams(l nn.Layer) []*nn.Param {
	if f, ok := l.(*nn.Frozen); ok {
		return f.Inner.Params()
	}
	return l.Params()
}
