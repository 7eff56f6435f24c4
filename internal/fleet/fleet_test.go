package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/obs"
	"chameleon/internal/tensor"
)

// tallyLearner is a deterministic snapshotable fake: its whole state is the
// label sequence it has observed, and Predict reports how many labels it
// holds — so restored state is directly visible through the request API.
type tallyLearner struct {
	labels []int
}

func (l *tallyLearner) Name() string { return "tally" }

func (l *tallyLearner) Observe(b cl.LatentBatch) {
	for _, s := range b.Samples {
		l.labels = append(l.labels, s.Label)
	}
}

func (l *tallyLearner) Predict(z *tensor.Tensor) int { return len(l.labels) }

func (l *tallyLearner) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(l.labels)
	return buf.Bytes(), err
}

func (l *tallyLearner) Restore(state []byte) error {
	return gob.NewDecoder(bytes.NewReader(state)).Decode(&l.labels)
}

// bareLearner implements only the base interface — no Snapshotter — so it
// must be refused by an evicting fleet.
type bareLearner struct{}

func (bareLearner) Name() string               { return "bare" }
func (bareLearner) Observe(cl.LatentBatch)     {}
func (bareLearner) Predict(*tensor.Tensor) int { return 0 }

func tallyFactory(user string) (cl.Learner, error) { return &tallyLearner{}, nil }

// newTestFleet builds a fleet on a temp dir and a fresh registry, shut down
// at cleanup (Shutdown is idempotent, so tests may also stop it themselves).
func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.New == nil {
		cfg.New = tallyFactory
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	return f
}

func observeLabels(t *testing.T, f *Fleet, user string, labels ...int) (batch, total int) {
	t.Helper()
	samples := make([]cl.LatentSample, len(labels))
	for i, lab := range labels {
		samples[i] = cl.LatentSample{Label: lab}
	}
	batch, total, err := f.Observe(context.Background(), user, samples, 0)
	if err != nil {
		t.Fatalf("Observe(%s): %v", user, err)
	}
	return batch, total
}

// syncFleet waits for every shard's queued work, evictions included.
func syncFleet(t *testing.T, f *Fleet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func predict(t *testing.T, f *Fleet, user string) int {
	t.Helper()
	class, err := f.Predict(context.Background(), user, tensor.New(1))
	if err != nil {
		t.Fatalf("Predict(%s): %v", user, err)
	}
	return class
}

func TestObservePredictRoundTrip(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 2})
	if b, n := observeLabels(t, f, "u1", 3, 1); b != 0 || n != 2 {
		t.Fatalf("first batch: index %d total %d, want 0/2", b, n)
	}
	if b, n := observeLabels(t, f, "u1", 2); b != 1 || n != 3 {
		t.Fatalf("second batch: index %d total %d, want 1/3", b, n)
	}
	// Streams are numbered per user, not fleet-wide.
	if b, n := observeLabels(t, f, "u2", 9); b != 0 || n != 1 {
		t.Fatalf("u2 first batch: index %d total %d, want 0/1", b, n)
	}
	if got := predict(t, f, "u1"); got != 3 {
		t.Fatalf("u1 predict = %d, want 3 observed labels", got)
	}
	st := f.Stats()
	if st.UsersKnown != 2 || st.Batches != 3 || st.Samples != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUEvictionAndFaultIn(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1, HotSet: 1})
	observeLabels(t, f, "u1", 1, 2)
	observeLabels(t, f, "u2", 5) // evicts u1 (LRU) past the 1-slot budget
	// Eviction runs after the triggering response is sent; Sync waits for it.
	syncFleet(t, f)

	st := f.Stats()
	if st.Evictions != 1 || st.Resident != 1 {
		t.Fatalf("after u2: evictions %d resident %d, want 1/1", st.Evictions, st.Resident)
	}
	if _, err := os.Stat(f.userPath("u1")); err != nil {
		t.Fatalf("u1 eviction checkpoint missing: %v", err)
	}

	// Touching u1 faults it back in with its state and stream position.
	if got := predict(t, f, "u1"); got != 2 {
		t.Fatalf("faulted-in u1 predict = %d, want 2", got)
	}
	if b, n := observeLabels(t, f, "u1", 7); b != 1 || n != 3 {
		t.Fatalf("faulted-in u1 batch: index %d total %d, want 1/3", b, n)
	}
	syncFleet(t, f)
	st = f.Stats()
	if st.FaultIns != 1 || st.Evictions != 2 {
		t.Fatalf("after fault-in: %+v", st)
	}
}

func TestMaxUsersAdmission(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 2, MaxUsers: 2})
	observeLabels(t, f, "u1", 1)
	observeLabels(t, f, "u2", 1)
	if _, err := f.Predict(context.Background(), "u3", tensor.New(1)); !errors.Is(err, ErrTooManyUsers) {
		t.Fatalf("u3 admitted past MaxUsers: %v", err)
	}
	// The rejection must not leak capacity: known users keep working, the
	// rejected one stays rejected.
	if got := predict(t, f, "u1"); got != 1 {
		t.Fatalf("u1 after rejection: %d", got)
	}
	if _, _, err := f.Observe(context.Background(), "u3", []cl.LatentSample{{}}, 0); !errors.Is(err, ErrTooManyUsers) {
		t.Fatalf("u3 retry admitted: %v", err)
	}
	if st := f.Stats(); st.UsersKnown != 2 {
		t.Fatalf("users known = %d, want 2", st.UsersKnown)
	}
}

func TestUserValidation(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1})
	if _, err := f.Predict(context.Background(), "", tensor.New(1)); err == nil {
		t.Fatal("empty user accepted")
	}
	long := strings.Repeat("x", maxUserLen+1)
	if _, _, err := f.Observe(context.Background(), long, []cl.LatentSample{{}}, 0); err == nil {
		t.Fatal("over-long user accepted")
	}
}

func TestSnapshotterRequired(t *testing.T) {
	f := newTestFleet(t, Config{
		Shards: 1,
		New:    func(string) (cl.Learner, error) { return bareLearner{}, nil },
	})
	if _, err := f.Predict(context.Background(), "u1", tensor.New(1)); err == nil {
		t.Fatal("snapshotless learner accepted into an evicting fleet")
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	f := newTestFleet(t, Config{Shards: 2, Dir: dir})
	users := []string{"a", "b", "c", "d", "e"}
	for i, u := range users {
		observeLabels(t, f, u, i, i+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	syncFleet(t, f) // a drained fleet has nothing left in flight
	if st := f.Stats(); st.Resident != 0 {
		t.Fatalf("residents after drain: %d", st.Resident)
	}
	for _, u := range users {
		var st userState
		if err := checkpoint.Load(f.userPath(u), userKind, &st); err != nil {
			t.Fatalf("drained checkpoint for %s: %v", u, err)
		}
		if st.User != u || st.Batches != 1 || st.Samples != 2 {
			t.Fatalf("drained state for %s: %+v", u, st)
		}
	}
	if _, err := f.Predict(context.Background(), "a", tensor.New(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown predict: %v", err)
	}

	// A second fleet over the same directory resumes every user.
	f2 := newTestFleet(t, Config{Shards: 2, Dir: dir})
	for i, u := range users {
		if got := predict(t, f2, u); got != 2 {
			t.Fatalf("restarted fleet, user %s predict = %d, want 2", u, got)
		}
		if b, n := observeLabels(t, f2, u, 9); b != 1 || n != 3 {
			t.Fatalf("restarted fleet, user %s batch %d total %d, want 1/3 (i=%d)", u, b, n, i)
		}
	}
	if st := f2.Stats(); st.FaultIns != int64(len(users)) {
		t.Fatalf("restarted fleet fault-ins = %d, want %d", st.FaultIns, len(users))
	}
}

func TestFactoryErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	f := newTestFleet(t, Config{
		Shards: 1,
		New:    func(string) (cl.Learner, error) { return nil, boom },
	})
	if _, err := f.Predict(context.Background(), "u1", tensor.New(1)); !errors.Is(err, boom) {
		t.Fatalf("factory error lost: %v", err)
	}
}

func TestLearnerPanicBecomesError(t *testing.T) {
	f := newTestFleet(t, Config{
		Shards: 1,
		New:    func(string) (cl.Learner, error) { return &panicLearner{}, nil },
	})
	if _, err := f.Predict(context.Background(), "u1", tensor.New(1)); err == nil {
		t.Fatal("panic not converted to error")
	}
	// The shard survives: a healthy request for the same user still works.
	if _, _, err := f.Observe(context.Background(), "u1", []cl.LatentSample{{Label: 1}}, 0); err != nil {
		t.Fatalf("shard died after panic: %v", err)
	}
}

// panicLearner panics on Predict only; Observe and snapshots work.
type panicLearner struct{ tallyLearner }

func (p *panicLearner) Predict(*tensor.Tensor) int { panic("predict boom") }

// TestConcurrentEvictingUser hammers a 1-slot fleet from many goroutines so
// the target user is constantly mid-eviction or mid-fault-in while requests
// for it are in flight (run under -race). Per-user observe totals must come
// out exact: nothing is lost or double-counted across evictions.
func TestConcurrentEvictingUser(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1, HotSet: 1, QueueDepth: 1024})
	const perUser = 40
	users := []string{"hot", "cold1", "cold2"}
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(2)
		// One observer per user: Observe blocks per call, so each user's
		// stream stays ordered even with everything else in flight.
		go func(u string) {
			defer wg.Done()
			for i := 0; i < perUser; i++ {
				if _, _, err := f.Observe(context.Background(), u, []cl.LatentSample{{Label: i}}, 0); err != nil {
					t.Errorf("observe %s #%d: %v", u, i, err)
					return
				}
			}
		}(u)
		// Concurrent predicts for the same users, racing the evictions.
		go func(u string) {
			defer wg.Done()
			for i := 0; i < perUser; i++ {
				if _, err := f.Predict(context.Background(), u, tensor.New(1)); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("predict %s #%d: %v", u, i, err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	syncFleet(t, f)
	st := f.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 1-slot hot-set")
	}
	if st.Samples != int64(len(users)*perUser) {
		t.Fatalf("samples observed = %d, want %d", st.Samples, len(users)*perUser)
	}
	for _, u := range users {
		if got := predict(t, f, u); got != perUser {
			t.Fatalf("user %s holds %d labels, want %d", u, got, perUser)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing factory accepted")
	}
	if _, err := New(Config{New: tallyFactory}); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestRingIsDeterministicAndCovers(t *testing.T) {
	a, b := newRing(8), newRing(8)
	hit := map[int]bool{}
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("user-%d", i)
		sa, sb := a.lookup(key), b.lookup(key)
		if sa != sb {
			t.Fatalf("lookup(%s) differs across identical rings: %d vs %d", key, sa, sb)
		}
		if sa < 0 || sa >= 8 {
			t.Fatalf("lookup(%s) = %d out of range", key, sa)
		}
		hit[sa] = true
	}
	if len(hit) != 8 {
		t.Fatalf("only %d/8 shards receive traffic", len(hit))
	}
}

func TestUserSeedDiffersPerUser(t *testing.T) {
	seen := map[int64]string{}
	for _, u := range []string{"alice", "bob", "carol", "u1", "u2"} {
		s := UserSeed(42, u)
		if prev, dup := seen[s]; dup {
			t.Fatalf("UserSeed collision: %q and %q both map to %d", prev, u, s)
		}
		seen[s] = u
	}
	if UserSeed(1, "alice") == UserSeed(2, "alice") {
		t.Fatal("base seed ignored")
	}
	if UserSeed(1, "alice") != UserSeed(1, "alice") {
		t.Fatal("UserSeed not deterministic")
	}
}
