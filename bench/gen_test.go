package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallingServer answers every predict with class 7, except that its third
// request stalls for stall.
func stallingServer(stall time.Duration) *httptest.Server {
	var n atomic.Int32
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte(`{"class":7}`))
	}))
}

func TestOpenLoopCountsStallFromDue(t *testing.T) {
	const (
		gap   = 20 * time.Millisecond
		stall = 300 * time.Millisecond
	)
	srv := stallingServer(stall)
	defer srv.Close()
	l := newLane(srv.URL)
	defer l.close()
	calls := make([]call, 30)
	for i := range calls {
		calls[i] = call{id: fmt.Sprint(i), path: "/v1/predict", due: time.Duration(i) * gap, body: func() []byte { return []byte(`{}`) }}
	}
	out := l.drive(context.Background(), time.Now(), calls, false, nil, nil)
	if len(out) != len(calls) {
		t.Fatalf("%d of %d calls sent", len(out), len(calls))
	}
	for i, o := range out {
		if !o.ok() || o.class != 7 {
			t.Fatalf("call %d: status %d class %d", i, o.status, o.class)
		}
		if o.due != calls[i].due {
			t.Fatalf("call %d due at %v, scheduled %v", i, o.due, calls[i].due)
		}
		if o.late > 50*time.Millisecond {
			t.Errorf("call %d: generator %v late; a busy connection is not lateness", i, o.late)
		}
	}
	// The call due right after the stalled one waits behind it; its latency
	// counts from its due time, not from when the connection freed up.
	if o := out[3]; o.sent-o.due < stall-2*gap || ms(o.done-o.due) != o.latencyMs() {
		t.Errorf("call 3: sent %v after due, latency %.1f ms; want the stall counted", o.sent-o.due, o.latencyMs())
	}
	// Long after the backlog clears, calls go out on time again.
	if o := out[len(out)-1]; o.sent-o.due > 50*time.Millisecond {
		t.Errorf("last call sent %v after due; the backlog never cleared", o.sent-o.due)
	}
}

func TestClosedLoopIsDueOnPreviousAnswer(t *testing.T) {
	srv := stallingServer(100 * time.Millisecond)
	defer srv.Close()
	l := newLane(srv.URL)
	defer l.close()
	calls := make([]call, 5)
	for i := range calls {
		calls[i] = call{id: fmt.Sprint(i), path: "/v1/predict", body: func() []byte { return []byte(`{}`) }}
	}
	out := l.drive(context.Background(), time.Now(), calls, true, nil, nil)
	for i := 1; i < len(out); i++ {
		if out[i].due != out[i-1].done {
			t.Fatalf("closed-loop call %d due at %v, previous answer at %v", i, out[i].due, out[i-1].done)
		}
	}
	if lat := out[2].latencyMs(); lat < 90 {
		t.Fatalf("stalled call latency %.1f ms, want >= 90", lat)
	}
}

func TestFailureIsInfiniteLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"code":"queue_full","error":"full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	l := newLane(srv.URL)
	defer l.close()
	out := l.drive(context.Background(), time.Now(), []call{{id: "0", path: "/v1/predict", body: func() []byte { return nil }}}, true, nil, nil)
	if out[0].ok() || out[0].status != http.StatusTooManyRequests || out[0].latencyMs() <= 1e300 {
		t.Fatalf("a 429 gave status %d latency %v; want a failure at +Inf", out[0].status, out[0].latencyMs())
	}
}
