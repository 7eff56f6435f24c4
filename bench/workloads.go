package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"chameleon/internal/data"
)

// workload is one traffic mix against one server configuration. Why each
// exists is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// images sends raw frames, so the server's backbone extracts latents;
	// otherwise requests carry the cached latents.
	images bool
	// fleet tags every request with a Zipf-drawn user id.
	fleet bool
	// predictRate is the Poisson arrival rate of predicts, per second.
	predictRate float64
	// observeRate is the fixed arrival rate of observe batches, per second.
	// Zero selects the closed loop: batches go back to back, and closedRate
	// sizes their fixed count.
	observeRate float64
	closedRate  float64
	// flags are the server flags beyond the common ones; dir is a fresh
	// temporary directory for the server's files.
	flags func(dir string) []string
}

// The Zipf law of fleet-zipf's user ids: P(user k) ∝ (1+k)^-zipfS.
const (
	fleetUsers = 1000
	zipfS      = 1.1
	// minUsersTouched is the fewest distinct users a fleet-zipf run may
	// touch; fewer would leave most of the fleet's eviction path idle.
	minUsersTouched = 500
	observeBatch    = 10
)

var workloads = []workload{
	{
		name:        "latent-serve",
		predictRate: 200, observeRate: 60,
	},
	{
		name:        "image-serve",
		images:      true,
		predictRate: 100, observeRate: 20,
	},
	{
		name:        "durable-ingest",
		predictRate: 100, closedRate: 250,
		flags: func(dir string) []string {
			return []string{"-wal-dir", filepath.Join(dir, "wal"), "-wal-sync-every", "1"}
		},
	},
	{
		name:        "fleet-zipf",
		fleet:       true,
		predictRate: 200, observeRate: 50,
		flags: func(dir string) []string {
			return []string{"-fleet-users", fmt.Sprint(fleetUsers), "-fleet-hot", "32", "-fleet-dir", filepath.Join(dir, "fleet")}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// serverArgs are the flags every server run gets. The program seed stays
// fixed at 1: the bench seed changes only the generated inputs.
func serverArgs(w *workload, dir string) []string {
	args := []string{"-dataset", "synthetic", "-classes", "10", "-scale", "test", "-method", "chameleon", "-seed", "1", "-addr", "127.0.0.1:0"}
	if w.flags != nil {
		args = append(args, w.flags(dir)...)
	}
	return args
}

type predictReq struct {
	due  time.Duration // offset from the load start
	test int           // index into the held-out pool
	user string
}

type observeReq struct {
	due    time.Duration // offset from the load start; unused in the closed loop
	ids    []int         // train-pool samples, in stream order
	domain int
	user   string
}

// plan is every request of one run, fixed by the workload and the seed
// before the server starts.
type plan struct {
	w       *workload
	in      *inputs
	wire    *wire
	seed    int64
	warmup  time.Duration
	window  time.Duration
	predict []predictReq
	observe []observeReq
	// warmupObserves counts the leading closed-loop batches that are
	// warm-up; the open loop splits warm-up by due time instead.
	warmupObserves int
}

func (p *plan) closed() bool { return p.w.observeRate == 0 }

// load is the length of the scheduled traffic: warm-up plus window.
func (p *plan) load() time.Duration { return p.warmup + p.window }

func newPlan(w *workload, in *inputs, seed int64, warmup, window time.Duration) (*plan, error) {
	wire, err := encodeWire(in, w.images)
	if err != nil {
		return nil, fmt.Errorf("encode payloads: %w", err)
	}
	p := &plan{w: w, in: in, wire: wire, seed: seed, warmup: warmup, window: window}
	rng := rand.New(rand.NewSource(seed))
	var users *rand.Zipf
	if w.fleet {
		users = rand.NewZipf(rng, zipfS, 1, fleetUsers-1)
	}
	user := func() string {
		if users == nil {
			return ""
		}
		return fmt.Sprintf("u%d", users.Uint64())
	}

	// Observes: the user-centric stream, batch size 10.
	var nObs int
	if p.closed() {
		p.warmupObserves = int(w.closedRate * warmup.Seconds())
		nObs = p.warmupObserves + int(w.closedRate*window.Seconds())
	} else {
		nObs = int(w.observeRate * p.load().Seconds())
	}
	perDomain := observeBatch * ((nObs + len(in.ds.TrainDomains) - 1) / len(in.ds.TrainDomains))
	st := in.ds.Stream(seed, data.StreamOptions{BatchSize: observeBatch, UserCentric: true, SamplesPerDomain: perDomain})
	for i := 0; i < nObs; i++ {
		b, ok := st.Next()
		if !ok {
			return nil, fmt.Errorf("stream ended after %d of %d batches", i, nObs)
		}
		o := observeReq{ids: make([]int, len(b.Samples)), domain: b.Domain, user: user()}
		if !p.closed() {
			o.due = time.Duration(float64(i) / w.observeRate * float64(time.Second))
		}
		for j, s := range b.Samples {
			o.ids[j] = s.ID
		}
		p.observe = append(p.observe, o)
	}

	// Predicts: Poisson arrivals over the load. The closed loop's length is
	// not known in advance, so its predicts are scheduled over four times the
	// nominal length and stop when the last observe is answered.
	horizon := p.load()
	if p.closed() {
		horizon *= 4
	}
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / w.predictRate * float64(time.Second))
		if t >= horizon {
			break
		}
		p.predict = append(p.predict, predictReq{due: t, test: rng.Intn(len(in.ds.Test)), user: user()})
	}
	return p, nil
}

// sweepUsers are the learners the post-run sweep queries and the replay
// checks: the single learner (""), or fleet-zipf's three most-observed users
// (ties by id).
func (p *plan) sweepUsers() []string {
	if !p.w.fleet {
		return []string{""}
	}
	count := map[string]int{}
	for _, o := range p.observe {
		count[o.user]++
	}
	users := make([]string, 0, len(count))
	for u := range count {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if count[users[i]] != count[users[j]] {
			return count[users[i]] > count[users[j]]
		}
		return users[i] < users[j]
	})
	return users[:min(3, len(users))]
}
