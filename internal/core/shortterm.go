package core

import (
	"fmt"
	"math"
	"math/rand"

	"chameleon/internal/cl"
	"chameleon/internal/quant"
	"chameleon/internal/tensor"
)

// ShortTermStore is Chameleon's on-chip replay buffer M_s: tiny (paper: 10
// samples ≈ 0.3 MB of latents), swept in full at every training step, and
// refreshed once per incoming batch with the user-aware uncertainty-guided
// selection of Eq. 4.
type ShortTermStore struct {
	cap   int
	items []cl.LatentSample
	rng   *rand.Rand
	// Quantized mode (EnableInt8): qz/scales hold each slot's canonical int8
	// representation — the bytes that exist at rest and in checkpoints —
	// while items[i].Z points at a persistent per-slot tensor carrying the
	// dequantized values. Training therefore still sweeps Items() as a free
	// live slice, and a slot refresh re-quantizes in place: zero steady-state
	// allocations either way.
	quantized bool
	qz        [][]int8
	scales    []float32
}

// QuantSample is the checkpoint representation of one quantized short-term
// sample: the int8 payload, its symmetric per-tensor scale and latent shape,
// plus the sample metadata. The fp32 values a restored learner trains on are
// a pure function of (QZ, Scale), which is what makes the save/restore cycle
// bit-exact.
type QuantSample struct {
	QZ     []int8
	Scale  float32
	ZShape []int
	Label  int
	Domain int
	ID     int
}

// EnableInt8 switches the store to quantized storage; it must be called
// while the store is still empty.
func (s *ShortTermStore) EnableInt8() error {
	if len(s.items) > 0 {
		return fmt.Errorf("core: EnableInt8 on a non-empty short-term store (%d items)", len(s.items))
	}
	s.quantized = true
	return nil
}

// Quantized reports whether the store holds int8 latents.
func (s *ShortTermStore) Quantized() bool { return s.quantized }

// NewShortTermStore creates an M_s with the given capacity (paper: 10).
func NewShortTermStore(capacity int, rng *rand.Rand) *ShortTermStore {
	if capacity <= 0 {
		capacity = 10
	}
	return &ShortTermStore{cap: capacity, rng: rng}
}

// Len returns the current fill.
func (s *ShortTermStore) Len() int { return len(s.items) }

// Cap returns the capacity.
func (s *ShortTermStore) Cap() int { return s.cap }

// Items returns the live contents (the "sweep the complete short-term
// memory" training set). Callers must not mutate.
func (s *ShortTermStore) Items() []cl.LatentSample { return s.items }

// SetItems replaces the contents with a copy of items (fp32 checkpoint
// restore). A quantized store rejects non-empty fp32 state — the cross-dtype
// restore error; its own state travels through QuantState/SetQuantState.
func (s *ShortTermStore) SetItems(items []cl.LatentSample) error {
	if len(items) > s.cap {
		return fmt.Errorf("core: restoring %d items into capacity-%d short-term store", len(items), s.cap)
	}
	if s.quantized && len(items) > 0 {
		return fmt.Errorf("core: fp32 short-term state restored into int8 store (cross-dtype restore)")
	}
	s.items = append(s.items[:0:0], items...)
	s.qz = s.qz[:0]
	s.scales = s.scales[:0]
	return nil
}

// QuantState exports the quantized contents for checkpointing (nil for fp32
// stores). The returned records reference the live int8 buffers; callers
// serialize them before the next Update, as with every State export.
func (s *ShortTermStore) QuantState() []QuantSample {
	if !s.quantized {
		return nil
	}
	out := make([]QuantSample, len(s.items))
	for i, it := range s.items {
		out[i] = QuantSample{
			QZ:     s.qz[i],
			Scale:  s.scales[i],
			ZShape: it.Z.Shape(),
			Label:  it.Label,
			Domain: it.Domain,
			ID:     it.ID,
		}
	}
	return out
}

// SetQuantState restores contents captured by QuantState, rebuilding each
// slot's dequantized tensor from the int8 payload. An fp32 store rejects it
// (cross-dtype restore); hostile shape metadata is rejected before anything
// is mutated.
func (s *ShortTermStore) SetQuantState(items []QuantSample) error {
	if !s.quantized {
		return fmt.Errorf("core: int8 short-term state restored into fp32 store (cross-dtype restore)")
	}
	if len(items) > s.cap {
		return fmt.Errorf("core: restoring %d items into capacity-%d short-term store", len(items), s.cap)
	}
	for i, it := range items {
		n := 1
		for _, d := range it.ZShape {
			if d <= 0 {
				n = -1
				break
			}
			n *= d
		}
		if len(it.ZShape) == 0 || n != len(it.QZ) {
			return fmt.Errorf("core: quantized short-term item %d shape %v does not match %d-byte buffer", i, it.ZShape, len(it.QZ))
		}
		if math.IsNaN(float64(it.Scale)) || math.IsInf(float64(it.Scale), 0) {
			return fmt.Errorf("core: quantized short-term item %d has non-finite scale", i)
		}
	}
	s.items = s.items[:0]
	s.qz = s.qz[:0]
	s.scales = s.scales[:0]
	for _, it := range items {
		z := tensor.New(it.ZShape...)
		quant.DequantizeInt8(z.Data(), it.QZ, it.Scale)
		s.items = append(s.items, cl.LatentSample{Z: z, Label: it.Label, Domain: it.Domain, ID: it.ID})
		s.qz = append(s.qz, append([]int8(nil), it.QZ...))
		s.scales = append(s.scales, it.Scale)
	}
	return nil
}

// Uncertainty computes U_i (Eq. 3) for a sample: the absolute logit response
// at the true class, |o(x_i)·y|. Low U_i means the model is uncertain, so
// selection uses U_i⁻¹.
func Uncertainty(logits *tensor.Tensor, label int) float64 {
	return math.Abs(float64(logits.Data()[label]))
}

// SelectionProbs implements Eq. 4: for each batch element it combines the
// normalised allocation weight Δ_i with the normalised inverse uncertainty
// U_i⁻¹, mixed by α and β, and returns a probability distribution over the
// batch.
func SelectionProbs(tracker *PreferenceTracker, uncertainties []float64, labels []int, alpha, beta float64) []float64 {
	n := len(labels)
	probs := make([]float64, n)
	if n == 0 {
		return probs
	}
	// Normalised allocation term: Δ_i / Σ_j Δ_j (the paper's denominator sums
	// Δ_k over preferred and 1−Δ_k over non-preferred batch members).
	alloc := make([]float64, n)
	var allocZ float64
	for i, y := range labels {
		alloc[i] = tracker.AllocationWeight(y)
		allocZ += alloc[i]
	}
	// Normalised inverse-uncertainty term, clamped to keep U⁻¹ finite. A
	// non-finite uncertainty must not reach the normalizer: a single NaN
	// logit would make invZ NaN, silently dropping (or poisoning) the whole
	// Eq. 4 uncertainty term — and a NaN in the returned distribution makes
	// the CDF walk in sampleIndex deterministically pick the last batch
	// element. A NaN response carries no uncertainty signal, so the sample is
	// excluded from this term; +Inf (a saturated logit means maximal
	// certainty) contributes 1/Inf = 0 naturally.
	const minU = 1e-3
	invU := make([]float64, n)
	var invZ float64
	for i, u := range uncertainties {
		switch {
		case math.IsNaN(u):
			invU[i] = 0
		case u < minU: // Uncertainty is |logit| ≥ 0, but clamp defensively.
			invU[i] = 1 / minU
		default:
			invU[i] = 1 / u
		}
		invZ += invU[i]
	}
	var z float64
	for i := range probs {
		p := 0.0
		if allocZ > 0 {
			p += alpha * alloc[i] / allocZ
		}
		if invZ > 0 {
			p += beta * invU[i] / invZ
		}
		probs[i] = p
		z += p
	}
	// Degenerate or non-finite weights (α/β abuse, overflow): uniform.
	if !(z > 0) || math.IsInf(z, 0) {
		for i := range probs {
			probs[i] = 1 / float64(n)
		}
		return probs
	}
	for i := range probs {
		probs[i] /= z
	}
	return probs
}

// Update performs the per-batch M_s refresh (Algorithm 1, lines 8–10):
// draw one element b_t from the batch according to probs and replace a
// uniformly random stored sample with it (or append while below capacity).
// It returns the index of the chosen batch element.
func (s *ShortTermStore) Update(batch []cl.LatentSample, probs []float64) int {
	if len(batch) == 0 {
		return -1
	}
	chosen := sampleIndex(probs, s.rng)
	if len(s.items) < s.cap {
		if s.quantized {
			s.appendQuantized(batch[chosen])
		} else {
			s.items = append(s.items, batch[chosen])
		}
		return chosen
	}
	victim := s.rng.Intn(len(s.items))
	if s.quantized {
		s.storeQuantized(victim, batch[chosen])
	} else {
		s.items[victim] = batch[chosen]
	}
	return chosen
}

// appendQuantized grows the store by one quantized slot (fill phase: the
// slot tensor and int8 buffer are allocated once and reused forever after).
func (s *ShortTermStore) appendQuantized(sm cl.LatentSample) {
	slot := sm
	slot.Z = tensor.New(sm.Z.Shape()...)
	s.items = append(s.items, slot)
	s.qz = append(s.qz, make([]int8, sm.Z.Len()))
	s.scales = append(s.scales, 0)
	s.requantize(len(s.items)-1, sm.Z)
}

// storeQuantized refreshes slot i with a new sample, quantizing into the
// slot's existing buffers — the zero-allocation steady-state path.
func (s *ShortTermStore) storeQuantized(i int, sm cl.LatentSample) {
	if len(s.qz[i]) != sm.Z.Len() {
		// Latent shape changed (never in a configured run): rebuild the slot.
		s.qz[i] = make([]int8, sm.Z.Len())
		s.items[i].Z = tensor.New(sm.Z.Shape()...)
	}
	slot := sm
	slot.Z = s.items[i].Z
	s.items[i] = slot
	s.requantize(i, sm.Z)
}

// requantize writes slot i's int8 representation from src and materialises
// the dequantized values the trainer sweeps. The store's fp32 view is always
// the decode of its int8 payload — never the raw incoming values — so what
// the learner rehearses is exactly what a checkpoint round trip reproduces.
func (s *ShortTermStore) requantize(i int, src *tensor.Tensor) {
	s.scales[i] = quant.QuantizeInt8(s.qz[i], src.Data())
	quant.DequantizeInt8(s.items[i].Z.Data(), s.qz[i], s.scales[i])
}

// sampleIndex draws an index from a (possibly unnormalised) distribution.
// Non-finite or negative weights are treated as zero mass: a NaN entry used
// to make the normalizer NaN, so `z <= 0` evaluated false, r = rng·NaN was
// NaN, every `r < acc` comparison failed, and the walk deterministically
// returned the last index — silently biasing Eq. 4 selection toward the last
// batch element. When no usable mass remains the draw falls back to uniform.
func sampleIndex(probs []float64, rng *rand.Rand) int {
	usable := func(p float64) bool { return p > 0 && !math.IsInf(p, 1) }
	var z float64
	for _, p := range probs {
		if usable(p) {
			z += p
		}
	}
	if !(z > 0) || math.IsInf(z, 1) {
		return rng.Intn(len(probs))
	}
	r := rng.Float64() * z
	acc := 0.0
	last := len(probs) - 1
	for i, p := range probs {
		if !usable(p) {
			continue
		}
		acc += p
		last = i
		if r < acc {
			return i
		}
	}
	// Floating-point round-off: return the last index that carried mass.
	return last
}
