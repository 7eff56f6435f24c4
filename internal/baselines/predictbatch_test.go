package baselines

import (
	"testing"

	"chameleon/internal/cl"
	"chameleon/internal/data"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// observeSome feeds the first n stream batches to a learner — enough training
// for the class scores to be non-degenerate without running a full stream.
func observeSome(set *cl.LatentSet, l cl.Learner, seed int64, n int) {
	st := set.Stream(seed, data.StreamOptions{BatchSize: 10})
	for i := 0; i < n; i++ {
		b, ok := st.Next()
		if !ok {
			break
		}
		l.Observe(b)
	}
}

// assertBatchMatchesSerial is the BatchPredictor contract check: PredictBatch
// over the whole test pool must agree exactly with per-sample Predict.
func assertBatchMatchesSerial(t *testing.T, l cl.Learner, test []cl.LatentSample) {
	t.Helper()
	bp := cl.Caps(l).BatchPredictor
	if bp == nil {
		t.Fatalf("%s does not implement cl.BatchPredictor", l.Name())
	}
	zs := make([]*tensor.Tensor, len(test))
	for i, s := range test {
		zs[i] = s.Z
	}
	batched := make([]int, len(zs))
	bp.PredictBatch(zs, batched)
	for i, z := range zs {
		if got := l.Predict(z); got != batched[i] {
			t.Fatalf("%s: sample %d serial=%d batched=%d", l.Name(), i, got, batched[i])
		}
	}
}

// TestPredictBatchMatchesSerialAllBaselines runs the contract check over
// every baseline learner, at worker counts on both sides of the sharding
// gate.
func TestPredictBatchMatchesSerialAllBaselines(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := env(t)
	dim := set.Backbone.LatentShape[0]
	classes := set.Dataset.Cfg.NumClasses
	learners := []cl.Learner{
		NewFinetune(head(set, 21)),
		NewJoint(head(set, 22), Config{Epochs: 1, Seed: 22}),
		NewER(head(set, 23), Config{BufferSize: 30, Seed: 23}),
		NewDER(head(set, 24), Config{BufferSize: 30, Seed: 24}),
		NewLatentReplay(head(set, 25), Config{BufferSize: 30, Seed: 25}),
		NewEWCPP(head(set, 26), Config{Seed: 26}),
		NewLwF(head(set, 27), Config{Seed: 27}),
		NewGSS(head(set, 28), Config{BufferSize: 30, Seed: 28}),
		NewSLDA(dim, classes, Config{Seed: 29}),
	}
	for _, l := range learners {
		observeSome(set, l, 31, 4)
		for _, w := range []int{1, 8} {
			parallel.SetWorkers(w)
			assertBatchMatchesSerial(t, l, set.Test)
		}
	}
}

// TestSLDAPredictBatchStaleScores exercises the cached-score invalidation
// path: every Observe moves the means and covariance the cached scores derive
// from, and PredictBatch must still agree with Predict after every Observe.
func TestSLDAPredictBatchStaleScores(t *testing.T) {
	set := env(t)
	dim := set.Backbone.LatentShape[0]
	s := NewSLDA(dim, set.Dataset.Cfg.NumClasses, Config{Seed: 41})
	st := set.Stream(41, data.StreamOptions{BatchSize: 10})
	for i := 0; i < 5; i++ {
		b, ok := st.Next()
		if !ok {
			break
		}
		s.Observe(b)
		assertBatchMatchesSerial(t, s, set.Test[:20])
	}
}

// TestSLDAPredictBatchAcrossResume checks that the batched scorer is rebuilt
// correctly after a checkpoint round trip (Restore must invalidate every
// cached matrix, not just the covariance inverse).
func TestSLDAPredictBatchAcrossResume(t *testing.T) {
	set := env(t)
	dim := set.Backbone.LatentShape[0]
	s := NewSLDA(dim, set.Dataset.Cfg.NumClasses, Config{Seed: 43})
	observeSome(set, s, 43, 4)
	zs := make([]*tensor.Tensor, len(set.Test))
	for i, smp := range set.Test {
		zs[i] = smp.Z
	}
	want := make([]int, len(zs))
	s.PredictBatch(zs, want)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	observeSome(set, s, 44, 4) // drift the statistics
	if err := s.Restore(blob); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(zs))
	s.PredictBatch(zs, got)
	for i := range zs {
		if got[i] != want[i] {
			t.Fatalf("sample %d: pre-checkpoint=%d post-restore=%d", i, want[i], got[i])
		}
		if serial := s.Predict(zs[i]); serial != got[i] {
			t.Fatalf("sample %d: serial=%d batched=%d after restore", i, serial, got[i])
		}
	}
}
