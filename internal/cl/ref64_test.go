package cl

import (
	"math/rand"
	"testing"

	"chameleon/internal/mobilenet"
	"chameleon/internal/parallel"
	"chameleon/internal/race"
	"chameleon/internal/tensor"
)

// TestFP32TrainStepOutrunsRef64 is the fast tier's reason to exist: one fp32
// train step (Head.TrainCEOn over an 11-sample replay-sized batch) must run
// at least 1.5× as fast as the same step through the fp64 Ref64 reference
// tier. Both heads train under the Table-I online regime (LR 0.1, momentum
// 0.5) from the same initialisation on the same batch, so the arms differ
// only in kernel tier. They are benchmarked round-robin five times and each
// keeps its fastest round: a noisy-neighbour period on a shared host then
// lands on both arms, and since interference only ever adds time, the
// per-arm minimum is the robust estimator. The ratio is within-run, so the
// gate holds on any host.
func TestFP32TrainStepOutrunsRef64(t *testing.T) {
	if race.Enabled {
		t.Skip("the step-time ratio is measured without -race instrumentation")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	const classes, batch, seed, rounds = 10, 11, 7, 5
	model, err := mobilenet.New(mobilenet.DefaultConfig(classes, seed))
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic latents: one Gaussian prototype per class plus sample noise,
	// shaped like the backbone's latent activations.
	rng := rand.New(rand.NewSource(seed))
	protos := make([]*tensor.Tensor, classes)
	for c := range protos {
		protos[c] = tensor.RandNormal(rng, 1.0, model.LatentShape...)
	}
	samples := make([]LatentSample, batch)
	for i := range samples {
		z := tensor.RandNormal(rng, 0.3, model.LatentShape...)
		z.AddInPlace(protos[i%classes])
		samples[i] = LatentSample{Z: z, Label: i % classes}
	}
	cfg := HeadConfig{LR: 0.1, Momentum: 0.5, Seed: seed}
	fp32 := NewHead(model, cfg)
	ref, err := NewRef64(NewHead(model, cfg))
	if err != nil {
		t.Fatal(err)
	}
	arms := []func(){
		func() { fp32.TrainCEOn(samples) },
		func() { ref.Observe(LatentBatch{Samples: samples}) },
	}
	best := make([]int64, len(arms))
	for r := 0; r < rounds; r++ {
		for i, step := range arms {
			step() // warm the workspace pools so steady state is what gets timed
			res := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					step()
				}
			})
			if ns := res.NsPerOp(); r == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	t.Logf("fp32 step %d ns/op, fp64 Ref64 step %d ns/op: %.2f×", best[0], best[1], ratio)
	if ratio < 1.5 {
		t.Fatalf("fp64/fp32 train-step ratio = %.2f, want >= 1.5 (the fast tier lost its lead)", ratio)
	}
}
