package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/core"
	"chameleon/internal/exp"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// TestEvictionBitIdentity is the fleet's core correctness contract: a learner
// that is repeatedly evicted to disk and faulted back in must end up in
// exactly the state of a never-evicted control fed the identical stream. The
// fleet runs a real Chameleon learner on a 1-slot hot-set, so every
// interleaved request for another user demotes the target between batches;
// concurrent predicts for the evicting user race the evictions (run this
// under -race). The check runs at worker-pool sizes 1 and 8 because the
// training kernels fan out across the pool and bit-identity must not depend
// on the parallel schedule. A fault-in restores the head without drawing its
// initial weights, so each user's head draws exactly once.
func TestEvictionBitIdentity(t *testing.T) {
	const seed = 9
	model, err := mobilenet.New(mobilenet.DefaultConfig(4, seed))
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	newLearner := func(user string) (cl.Learner, error) {
		head := cl.NewHead(model, cl.HeadConfig{LR: 0.1, Momentum: 0.5, Seed: UserSeed(seed, user)})
		return core.New(head, core.Config{STCap: 4, LTCap: 16, AccessRate: 2, Seed: UserSeed(seed, user)}), nil
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			inits := headInits()
			faultIns := checkEvictionIdentity(t, model, seed, workers, newLearner, core.SnapshotsEqual)
			if got := headInits() - inits; got != 4 {
				t.Fatalf("%d head initialisations over %d fault-ins, want 4: one per user and one for the control", got, faultIns)
			}
		})
	}
}

// TestEvictionBitIdentityAllMethods runs the same contract for every method
// the fleet can serve, each built as chameleon-serve builds it. Heads draw
// once per user, except EWC++'s, whose constructor snapshots the initial
// weights as its anchor, and SLDA, which has no head.
func TestEvictionBitIdentityAllMethods(t *testing.T) {
	const seed = 9
	model, err := mobilenet.New(mobilenet.DefaultConfig(4, seed))
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	sc := exp.TestScale()
	for _, method := range exp.Methods() {
		spec := exp.MethodSpec{Name: method, Buffer: 16, ST: 4}
		newLearner := func(user string) (cl.Learner, error) {
			return exp.NewLearnerOn(spec, model, 4, sc, UserSeed(seed, user), nil)
		}
		equal := func(a, b []byte) (bool, error) { return bytes.Equal(a, b), nil }
		if method == "chameleon" {
			// Chameleon's state holds maps, whose gob order is random.
			equal = core.SnapshotsEqual
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", method, workers), func(t *testing.T) {
				inits := headInits()
				faultIns := checkEvictionIdentity(t, model, seed, workers, newLearner, equal)
				want := int64(4)
				switch method {
				case "slda":
					want = 0
				case "ewcpp":
					want += faultIns
				}
				if got := headInits() - inits; got != want {
					t.Fatalf("%d head initialisations over %d fault-ins, want %d", got, faultIns, want)
				}
			})
		}
	}
}

// headInits reads the process-wide count of drawn head initialisations.
func headInits() int64 { return obs.Default().Counter("cl_head_inits_total").Value() }

// checkEvictionIdentity feeds a 6 × 3 stream to user alice on a 1-slot
// hot-set fleet, evicting her before every batch, while a goroutine predicts
// for her throughout; it checks her drained snapshot and her answers against
// a never-evicted control, and returns the fleet's fault-in count.
func checkEvictionIdentity(t *testing.T, model *mobilenet.Model, seed int64, workers int,
	newLearner func(string) (cl.Learner, error), equal func(a, b []byte) (bool, error)) int64 {
	t.Helper()
	parallel.SetWorkers(workers)
	t.Cleanup(func() { parallel.SetWorkers(0) })

	// One deterministic stream, shared verbatim by fleet and control.
	const nBatches, batchSize = 6, 3
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]cl.LatentSample, nBatches)
	for b := range batches {
		batches[b] = make([]cl.LatentSample, batchSize)
		for i := range batches[b] {
			batches[b][i] = cl.LatentSample{
				Z:     tensor.RandNormal(rng, 1, model.LatentShape...),
				Label: (b*batchSize + i) % 4,
			}
		}
	}

	f, err := New(Config{
		New: newLearner, Dir: t.TempDir(),
		Shards: 1, HotSet: 1, QueueDepth: 1024,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Concurrent predicts for the evicting user, racing every demotion and
	// fault-in for the whole run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		z := tensor.RandNormal(rand.New(rand.NewSource(seed+1)), 1, model.LatentShape...)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.Predict(context.Background(), "alice", z); err != nil {
				t.Errorf("concurrent predict: %v", err)
				return
			}
		}
	}()

	control, err := newLearner("alice")
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	for b, samples := range batches {
		if idx, _, err := f.Observe(context.Background(), "alice", samples, 0); err != nil {
			t.Fatalf("fleet observe %d: %v", b, err)
		} else if idx != b {
			t.Fatalf("fleet numbered batch %d as %d", b, idx)
		}
		control.Observe(cl.LatentBatch{Samples: samples, Index: b})
		// Touch two other users so alice is the LRU victim before her next
		// batch — she must fault in from disk every time.
		for _, other := range []string{"bob", "carol"} {
			if _, _, err := f.Observe(context.Background(), other, batches[0], 0); err != nil {
				t.Fatalf("observe %s: %v", other, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Counted before the answer check below, which faults alice in by itself.
	if st := f.Stats(); st.FaultIns < nBatches-1 {
		t.Fatalf("fault-ins = %d; the hot-set never actually evicted alice", st.FaultIns)
	}

	// Alice answers from disk as the control does from RAM.
	for b, samples := range batches {
		zs := make([]*tensor.Tensor, len(samples))
		for i, s := range samples {
			zs[i] = s.Z
		}
		want := make([]int, len(zs))
		if err := cl.PredictInto(control, zs, want); err != nil {
			t.Fatalf("control predict: %v", err)
		}
		for i, z := range zs {
			got, err := f.Predict(context.Background(), "alice", z)
			if err != nil {
				t.Fatalf("fleet predict: %v", err)
			}
			if got != want[i] {
				t.Fatalf("batch %d sample %d: fleet answered %d, control %d", b, i, got, want[i])
			}
		}
		if _, _, err := f.Observe(context.Background(), "bob", batches[0][:1], 0); err != nil {
			t.Fatalf("observe bob: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	var drained userState
	if err := checkpoint.Load(f.userPath("alice"), userKind, &drained); err != nil {
		t.Fatalf("load drained alice: %v", err)
	}
	if drained.Batches != nBatches || drained.Samples != nBatches*batchSize {
		t.Fatalf("drained stream position %d/%d, want %d/%d",
			drained.Batches, drained.Samples, nBatches, nBatches*batchSize)
	}
	want, err := cl.Caps(control).Snapshotter.Snapshot()
	if err != nil {
		t.Fatalf("control snapshot: %v", err)
	}
	same, err := equal(drained.Learner, want)
	if err != nil {
		t.Fatalf("compare snapshots: %v", err)
	}
	if !same {
		t.Fatal("evicted+faulted learner diverged from the never-evicted control")
	}
	return f.Stats().FaultIns
}
