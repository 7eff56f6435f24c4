package cl

import (
	"time"

	"chameleon/internal/obs"
)

// Package-level metric handles on the default registry, resolved once at init
// so the SGD and batched-eval hot paths only touch atomics. Heads are shared
// across every learner, so these aggregate process-wide; the per-learner
// breakdown lives in core's chameleon_step_* metrics.
var (
	headTrainSteps   = obs.Default().Counter("head_train_steps_total")
	headTrainSamples = obs.Default().Counter("head_train_samples_total")
	headTrainStep    = obs.Default().Histogram("head_train_step_seconds")
	headPredictBatch = obs.Default().Histogram("head_predict_batch_seconds")
	// headInits counts drawn head initialisations; a head restored before
	// first use never draws.
	headInits = obs.Default().Counter("cl_head_inits_total")
)

func observeTrainStep(t0 time.Time, samples int) {
	headTrainSteps.Add(1)
	headTrainSamples.Add(int64(samples))
	headTrainStep.ObserveSince(t0)
}
