package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/tensor"
)

// span is one timed interval. The traced server writes request spans
// (serve.predict, serve.observe) and learner spans (cl.predict_batch,
// core.observe, learner.snapshot, learner.restore, fleet.new); the generator
// adds its client spans and fills in Parent before writing the span file.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req is the X-Request-Id of a request span; User the fleet user of a
	// request or learner span.
	Req  string `json:"req,omitempty"`
	User string `json:"user,omitempty"`
	// N is the batch size of cl.predict_batch and core.observe.
	N int `json:"n,omitempty"`
	// DueNs is a client span's scheduled send time.
	DueNs   int64 `json:"due_ns,omitempty"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the server exits. Times are Unix
// nanoseconds so they line up with the generator's client spans.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// start opens a span; calling the returned function closes and records it.
func (t *tracer) start(name, req, user string, n int) func() {
	t0 := time.Now().UnixNano()
	return func() {
		s := span{Name: name, Req: req, User: user, N: n, StartNs: t0, EndNs: time.Now().UnixNano()}
		t.mu.Lock()
		if req != "" {
			s.ID = "s:" + req
		} else {
			s.ID = "l" + strconv.Itoa(len(t.spans))
		}
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// middleware emits a serve.predict or serve.observe span around each /v1
// request, named by the X-Request-Id the generator sets.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch r.URL.Path {
		case "/v1/predict":
			name = "serve.predict"
		case "/v1/observe":
			name = "serve.observe"
		}
		req := r.Header.Get("X-Request-Id")
		if name == "" || req == "" {
			next.ServeHTTP(w, r)
			return
		}
		defer t.start(name, req, "", 0)()
		next.ServeHTTP(w, r)
	})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeSpans(path, t.spans)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// tracedLearner times every call into a learner. It forwards the optional
// extensions the serving layer discovers through cl.Caps; the learners it
// wraps must batch-predict and snapshot (every method the fleet and the
// observe log can host does).
type tracedLearner struct {
	inner cl.Learner
	bp    cl.BatchPredictor
	snap  cl.Snapshotter
	user  string
	t     *tracer
}

func (t *tracer) wrap(l cl.Learner, user string) (*tracedLearner, error) {
	caps := cl.Caps(l)
	if caps.BatchPredictor == nil || caps.Snapshotter == nil {
		return nil, errors.New("traced learner: method must implement BatchPredictor and Snapshotter")
	}
	return &tracedLearner{inner: l, bp: caps.BatchPredictor, snap: caps.Snapshotter, user: user, t: t}, nil
}

func (l *tracedLearner) Name() string { return l.inner.Name() }

func (l *tracedLearner) Observe(b cl.LatentBatch) {
	defer l.t.start("core.observe", "", l.user, len(b.Samples))()
	l.inner.Observe(b)
}

// Predict is what a fleet shard calls: a predict batch of one.
func (l *tracedLearner) Predict(z *tensor.Tensor) int {
	defer l.t.start("cl.predict_batch", "", l.user, 1)()
	return l.inner.Predict(z)
}

func (l *tracedLearner) PredictBatch(zs []*tensor.Tensor, out []int) {
	defer l.t.start("cl.predict_batch", "", l.user, len(zs))()
	l.bp.PredictBatch(zs, out)
}

func (l *tracedLearner) Snapshot() ([]byte, error) {
	defer l.t.start("learner.snapshot", "", l.user, 0)()
	return l.snap.Snapshot()
}

func (l *tracedLearner) Restore(state []byte) error {
	defer l.t.start("learner.restore", "", l.user, 0)()
	return l.snap.Restore(state)
}

func (l *tracedLearner) Finish() {
	if f := cl.Caps(l.inner).Finisher; f != nil {
		f.Finish()
	}
}
