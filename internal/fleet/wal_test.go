package fleet

import (
	"context"
	"os"
	"strings"
	"testing"

	"chameleon/internal/api"
	"chameleon/internal/cl"
	"chameleon/internal/obs"
	"chameleon/internal/replication"
	"chameleon/internal/tensor"
)

// walFleet builds a single-shard fleet whose observes are logged to a WAL in
// its own temp dir. Single shard + tiny hot set makes eviction deterministic.
func walFleet(t *testing.T, hotSet int) (*Fleet, *replication.Log) {
	t.Helper()
	wlog, err := replication.Open(t.TempDir(), replication.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	f := newTestFleet(t, Config{
		Shards:      1,
		HotSet:      hotSet,
		WAL:         wlog,
		LatentShape: []int{1},
	})
	return f, wlog
}

// observeLat feeds one single-sample batch with a real latent (the log
// serialises Z, so nil tensors are not an option here).
func observeLat(t *testing.T, f *Fleet, user string, label int) (batch int) {
	t.Helper()
	samples := []cl.LatentSample{{Z: tensor.FromSlice([]float32{float32(label)}, 1), Label: label}}
	batch, _, err := f.Observe(context.Background(), user, samples, 0)
	if err != nil {
		t.Fatalf("Observe(%s): %v", user, err)
	}
	return batch
}

// TestLogRepairsCorruptCheckpoint is the fleet's recovery story: when a
// user's eviction checkpoint is corrupt, fault-in rebuilds the learner from
// deterministic construction plus a replay of the user's logged batches,
// instead of failing the request.
func TestLogRepairsCorruptCheckpoint(t *testing.T) {
	f, _ := walFleet(t, 1)
	for i := 0; i < 3; i++ {
		if got := observeLat(t, f, "u1", i); got != i {
			t.Fatalf("u1 batch %d assigned %d", i, got)
		}
	}
	// A second user evicts u1 (hot set of one) to its checkpoint file, after
	// the observe's response; Sync waits for the eviction to land.
	observeLat(t, f, "u2", 9)
	syncFleet(t, f)
	path := f.userPath("u1")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("u1 was not evicted: %v", err)
	}
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fault u1 back in: the corrupt checkpoint must be repaired from the log.
	if got := predict(t, f, "u1"); got != 3 {
		t.Fatalf("after log rebuild, u1 predicts %d labels, want 3", got)
	}
	// The stream position survived too: the next observe continues at batch 3.
	if got := observeLat(t, f, "u1", 3); got != 3 {
		t.Fatalf("post-rebuild observe assigned batch %d, want 3", got)
	}
}

// TestLogReplaysCrashedBeforeEviction covers the other fault-in hole: a user
// whose learner died with the process before ever being evicted has no
// checkpoint at all — only log records. A fresh fleet over the same log must
// rebuild the user from scratch.
func TestLogReplaysCrashedBeforeEviction(t *testing.T) {
	f1, wlog := walFleet(t, 4)
	for i := 0; i < 3; i++ {
		observeLat(t, f1, "u1", i)
	}
	// "Crash": nothing is evicted or drained; a new fleet starts over the
	// same observe log with an empty checkpoint dir.
	f2 := newTestFleet(t, Config{
		Shards:      1,
		HotSet:      4,
		WAL:         wlog,
		LatentShape: []int{1},
	})
	if got := predict(t, f2, "u1"); got != 3 {
		t.Fatalf("after crash replay, u1 predicts %d labels, want 3", got)
	}
	if got := observeLat(t, f2, "u1", 3); got != 3 {
		t.Fatalf("post-crash observe assigned batch %d, want 3", got)
	}
}

// TestFaultInSkipsAlreadyCheckpointedBatches pins the replay cursor: a clean
// eviction checkpoint already covers the user's logged batches, so fault-in
// must not double-apply them.
func TestFaultInSkipsAlreadyCheckpointedBatches(t *testing.T) {
	f, _ := walFleet(t, 1)
	for i := 0; i < 3; i++ {
		observeLat(t, f, "u1", i)
	}
	observeLat(t, f, "u2", 9) // evicts u1 cleanly
	if got := predict(t, f, "u1"); got != 3 {
		t.Fatalf("faulted-in u1 predicts %d labels, want 3 (double-applied replay?)", got)
	}
}

// TestReplayGapFailsLoudly: a log that does not cover the user's stream (the
// checkpoint says batch 2, the log's next record for the user is batch 5)
// must fail the fault-in rather than silently skip observes.
func TestReplayGapFailsLoudly(t *testing.T) {
	f, wlog := walFleet(t, 1)
	observeLat(t, f, "u1", 0)
	observeLat(t, f, "u2", 9) // evict u1 at batch position 1
	syncFleet(t, f)

	// Forge a log record claiming u1's batch 5: the fault-in replay, resuming
	// at batch 1, must refuse the gap.
	rec := forgeRecord(t, "u1", 5)
	if _, err := wlog.Append(rec); err != nil {
		t.Fatalf("append forged record: %v", err)
	}
	_, err := f.Predict(context.Background(), "u1", tensor.New(1))
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped replay err = %v, want observe-log gap", err)
	}
}

func forgeRecord(t *testing.T, user string, batch int) *api.LogRecord {
	t.Helper()
	return &api.LogRecord{
		User:    user,
		Batch:   batch,
		Samples: []api.LogSample{{Latent: []float32{1}, Label: 0}},
	}
}
