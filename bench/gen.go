package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/api"
)

// lane is one keep-alive HTTP connection to the server. The generator holds
// exactly two, one for predicts and one for observes, so at most one request
// of each kind is in flight. That is what lets the trace give every learner
// span exactly one request as its parent.
type lane struct {
	base   string
	client *http.Client
}

func newLane(base string) *lane {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &lane{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// call is one scheduled request.
type call struct {
	id   string        // X-Request-Id: joins the client span to the server's
	path string        // /v1/predict or /v1/observe
	due  time.Duration // offset from the load start (open loop only)
	body func() []byte
}

// outcome is what happened to one call; times are offsets from the load
// start.
type outcome struct {
	due, sent, done time.Duration
	// late is sent − max(due, previous response): how far behind its own
	// schedule the generator ran. It is not part of the latency.
	late   time.Duration
	status int // HTTP status; 0 on a transport error
	class  int // predict: the answer
	batch  int // observe: the stream index the server assigned
}

func (o outcome) ok() bool { return o.status == http.StatusOK }

// latencyMs is the due-time latency; a failed request counts as +Inf.
func (o outcome) latencyMs() float64 {
	if !o.ok() {
		return math.Inf(1)
	}
	return ms(o.done - o.due)
}

// drive sends calls in order. An open-loop call goes out at max(due,
// previous response), so a stall delays later calls and their latency,
// measured from due, includes that wait. A closed-loop call is due the moment
// the previous response arrives. cont, when set, reports whether a call due
// at the given offset should still go out; onSend runs before call i is sent.
func (l *lane) drive(ctx context.Context, start time.Time, calls []call, closed bool, cont func(time.Duration) bool, onSend func(int)) []outcome {
	out := make([]outcome, 0, len(calls))
	var free time.Duration
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for i, c := range calls {
		due := c.due
		if closed {
			due = free
		}
		body := c.body()
		if wait := due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return out
			case <-timer.C:
			}
		}
		if ctx.Err() != nil || (cont != nil && !cont(due)) {
			return out
		}
		if onSend != nil {
			onSend(i)
		}
		o := outcome{due: due, sent: time.Since(start)}
		o.late = o.sent - max(due, free)
		o.status, o.class, o.batch = l.post(ctx, c.path, c.id, body)
		o.done = time.Since(start)
		free = o.done
		out = append(out, o)
	}
	return out
}

// post sends one request and decodes a 200 answer.
func (l *lane) post(ctx context.Context, path, id string, body []byte) (status, class, batch int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, 0, 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, 0, 0
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, 0
	}
	if path == "/v1/observe" {
		var r api.ObserveResponse
		if json.Unmarshal(b, &r) != nil {
			return 0, 0, 0
		}
		return resp.StatusCode, 0, r.Batch
	}
	var r api.PredictResponse
	if json.Unmarshal(b, &r) != nil {
		return 0, 0, 0
	}
	return resp.StatusCode, r.Class, 0
}

// loadResult is what the generator saw during one run's traffic.
type loadResult struct {
	start time.Time // wall clock of offset 0
	// predicts and observes are index-aligned with the plan's requests; a
	// closed-loop run may send fewer predicts than planned.
	predicts []outcome
	observes []outcome
	// windowStart is the offset where the measured window begins, end the
	// offset of the last answer.
	windowStart time.Duration
	end         time.Duration
}

func (r *loadResult) all() []outcome {
	return append(slices.Clone(r.predicts), r.observes...)
}

// observeInWindow reports whether observe i belongs to the measured window.
func (r *loadResult) observeInWindow(p *plan, i int) bool {
	if p.closed() {
		return i >= p.warmupObserves
	}
	return r.observes[i].due >= r.windowStart
}

// runLoad drives a plan's traffic: predicts on one lane, observes on the
// other. onWindow runs once, when the measured window begins.
func runLoad(ctx context.Context, p *plan, predictLane, observeLane *lane, onWindow func()) *loadResult {
	pcalls := make([]call, len(p.predict))
	for i, r := range p.predict {
		r := r
		pcalls[i] = call{id: fmt.Sprintf("p%d", i), path: "/v1/predict", due: r.due, body: func() []byte { return p.wire.predictBody(r.test, r.user) }}
	}
	ocalls := make([]call, len(p.observe))
	for i, r := range p.observe {
		r := r
		ocalls[i] = call{id: fmt.Sprintf("o%d", i), path: "/v1/observe", due: r.due, body: func() []byte { return p.wire.observeBody(r.ids, r.domain, r.user) }}
	}

	var once sync.Once
	window := func() { once.Do(onWindow) }
	res := &loadResult{start: time.Now(), windowStart: p.warmup}
	// Every planned observe is sent, so the learned stream is the same on
	// every run. In the closed loop the predicts beside the observes stop once
	// the last observe is answered.
	var obsEnd atomic.Int64
	obsEnd.Store(-1)
	var onObserve func(int)
	var cont func(time.Duration) bool
	if p.closed() {
		onObserve = func(i int) {
			if i == p.warmupObserves {
				window()
			}
		}
		cont = func(due time.Duration) bool {
			e := obsEnd.Load()
			return e < 0 || due <= time.Duration(e)
		}
	} else {
		t := time.AfterFunc(p.warmup, window)
		defer t.Stop()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.predicts = predictLane.drive(ctx, res.start, pcalls, false, cont, nil)
	}()
	res.observes = observeLane.drive(ctx, res.start, ocalls, p.closed(), nil, onObserve)
	obsEnd.Store(int64(time.Since(res.start)))
	wg.Wait()
	if p.closed() && len(res.observes) > p.warmupObserves {
		res.windowStart = res.observes[p.warmupObserves].due
	}
	window() // a run cut short still reads its window-start counters
	for _, o := range res.all() {
		res.end = max(res.end, o.done)
	}
	return res
}

// sweep asks every sweep user's learner for the class of every held-out
// sample, in order, one request at a time. answers[u][i] is -1 where the
// request failed.
func sweep(ctx context.Context, p *plan, l *lane) (answers map[string][]int, failed int) {
	users := p.sweepUsers()
	n := len(p.in.ds.Test)
	calls := make([]call, 0, len(users)*n)
	for _, u := range users {
		for i := 0; i < n; i++ {
			u, i := u, i
			calls = append(calls, call{id: fmt.Sprintf("s%d", len(calls)), path: "/v1/predict", body: func() []byte { return p.wire.predictBody(i, u) }})
		}
	}
	out := l.drive(ctx, time.Now(), calls, true, nil, nil)
	answers = map[string][]int{}
	for k, u := range users {
		a := make([]int, n)
		for i := range a {
			j := k*n + i
			if j >= len(out) || !out[j].ok() {
				a[i] = -1
				failed++
				continue
			}
			a[i] = out[j].class
		}
		answers[u] = a
	}
	return answers, failed
}
