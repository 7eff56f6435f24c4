package cl

import (
	"fmt"
	"math"

	"chameleon/internal/data"
	"chameleon/internal/tensor"
)

// Result is the outcome of one online run.
type Result struct {
	// Method is the learner's name.
	Method string
	// AccAll is the paper's Acc_all: final accuracy over the held-out test
	// pool, averaged over samples.
	AccAll float64
	// PerClass is the per-class test accuracy.
	PerClass []float64
	// PreferredAcc is the accuracy restricted to the preferred classes the
	// stream ended with (user-centric runs; NaN otherwise).
	PreferredAcc float64
	// SamplesSeen is the stream length consumed.
	SamplesSeen int
}

// RunOnline drives the learner over the stream (single pass), then evaluates
// it on the test pool. It is the experiment kernel behind Table I and Fig. 2.
// It is RunOnlineCheckpointed without persistence — one loop implementation
// serves both, so checkpointed and plain runs cannot drift apart.
func RunOnline(l Learner, stream *LatentStream, test []LatentSample) Result {
	res, err := RunOnlineCheckpointed(l, stream, test, CheckpointPlan{})
	if err != nil {
		// With no checkpoint path configured there is no fallible step.
		panic("cl: checkpoint-free run failed: " + err.Error())
	}
	return res
}

// Evaluate computes Acc_all and per-class accuracy of a learner on a test
// pool. The whole pool is classified through one PredictInto call (one pass:
// batched learners run a handful of matrix kernels over the full pool), then
// the tallies grow to whatever classes the pool actually contains; classes
// below the max label with no test support report NaN, like before.
func Evaluate(l Learner, test []LatentSample) Result {
	if len(test) == 0 {
		return Result{Method: l.Name(), AccAll: math.NaN(), PreferredAcc: math.NaN()}
	}
	zs := make([]*tensor.Tensor, len(test))
	for i, s := range test {
		zs[i] = s.Z
	}
	preds := make([]int, len(test))
	if err := PredictInto(l, zs, preds); err != nil {
		// preds is sized to zs above; a failure here is a programming error.
		panic(err)
	}
	var correct, total []int
	hits := 0
	for i, s := range test {
		for s.Label >= len(total) {
			total = append(total, 0)
			correct = append(correct, 0)
		}
		total[s.Label]++
		if preds[i] == s.Label {
			correct[s.Label]++
			hits++
		}
	}
	per := make([]float64, len(total))
	for c := range per {
		if total[c] > 0 {
			per[c] = float64(correct[c]) / float64(total[c])
		} else {
			per[c] = math.NaN()
		}
	}
	return Result{
		Method:       l.Name(),
		AccAll:       float64(hits) / float64(len(test)),
		PerClass:     per,
		PreferredAcc: math.NaN(),
	}
}

// PreferredAccuracy averages per-class accuracy over the given class set,
// weighting by test support. Returns NaN when the set is empty or unsupported.
func PreferredAccuracy(perClass []float64, test []LatentSample, preferred []int) float64 {
	if len(preferred) == 0 {
		return math.NaN()
	}
	support := make(map[int]int)
	for _, s := range test {
		support[s.Label]++
	}
	var num, den float64
	for _, c := range preferred {
		if c >= len(perClass) || support[c] == 0 || math.IsNaN(perClass[c]) {
			continue
		}
		num += perClass[c] * float64(support[c])
		den += float64(support[c])
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// Summary aggregates repeated runs of one method, reporting mean ± std as
// the paper's tables do.
type Summary struct {
	Method string
	Runs   []Result
	// MeanAcc and StdAcc summarise AccAll across runs (std is the sample
	// standard deviation, matching the paper's ± convention).
	MeanAcc, StdAcc float64
	// MeanPreferred summarises PreferredAcc across runs that defined it.
	MeanPreferred float64
}

// Summarize reduces a set of runs.
func Summarize(runs []Result) Summary {
	if len(runs) == 0 {
		return Summary{}
	}
	s := Summary{Method: runs[0].Method, Runs: runs}
	var sum, sumSq float64
	var prefSum float64
	prefN := 0
	for _, r := range runs {
		sum += r.AccAll
		sumSq += r.AccAll * r.AccAll
		if !math.IsNaN(r.PreferredAcc) {
			prefSum += r.PreferredAcc
			prefN++
		}
	}
	n := float64(len(runs))
	s.MeanAcc = sum / n
	if len(runs) > 1 {
		v := (sumSq - sum*sum/n) / (n - 1)
		if v > 0 {
			s.StdAcc = math.Sqrt(v)
		}
	}
	if prefN > 0 {
		s.MeanPreferred = prefSum / float64(prefN)
	} else {
		s.MeanPreferred = math.NaN()
	}
	return s
}

// String renders "mean ± std" in percent.
func (s Summary) String() string {
	return fmt.Sprintf("%s: %.2f ± %.2f %%", s.Method, 100*s.MeanAcc, 100*s.StdAcc)
}

// MultiSeed runs newLearner(seed) over the latent set once per seed and
// summarises. Stream order and head initialisation both vary with the seed,
// mirroring the paper's "mean and standard deviation across ten runs".
//
// Seeds run concurrently on the shared worker pool: each run owns its
// learner, head and RNG streams and reads the latent set immutably, so runs
// are independent by construction. Results land in seed order and the
// summary is byte-identical at any worker count; newLearner must not touch
// shared mutable state.
func MultiSeed(set *LatentSet, opts data.StreamOptions, newLearner func(seed int64) Learner, seeds []int64) Summary {
	s, err := MultiSeedCheckpointed(set, opts, newLearner, seeds, GridCheckpoint{})
	if err != nil {
		// With no checkpoint directory configured there is no fallible step.
		panic("cl: checkpoint-free multi-seed run failed: " + err.Error())
	}
	return s
}
