package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"chameleon/internal/api"
)

// pass is one server run of a plan: set-up, the load, the post-run sweep and
// the server's own counters.
type pass struct {
	setups      []time.Duration // exec → first /healthz 200, per start
	load        *loadResult
	cpuMs       float64 // server user+system CPU over the measured window
	rssKB       uint64  // server VmHWM
	serverProcs int     // the server's GOMAXPROCS
	stats       api.Stats
	answers     map[string][]int // sweep: user → class per held-out sample
	sweepFailed int
	spans       []span // the traced server's spans, when traced
}

// probeGap separates server starts. Slow spells on the reference host last
// a few hundred milliseconds, so starts spread over seconds are more likely
// to include some outside them than back-to-back starts are.
const probeGap = 100 * time.Millisecond

// runPass starts the server argv (plus the workload's flags) starts times,
// probeGap apart, keeping the last one, drives the plan against it, sweeps,
// and stops it. With spansPath set the server is the traced host and its
// spans are read back after it exits. Every server and temporary directory
// is gone when it returns.
func runPass(ctx context.Context, p *plan, argv []string, starts int, tmpRoot, spansPath string) (*pass, error) {
	ps := &pass{}
	var srv *server
	var dir string
	defer func() {
		if srv != nil {
			srv.kill()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	// Finish the bench's own collection of its input-loading garbage first,
	// so it does not compete with the server starts being timed.
	runtime.GC()
	for i := 0; i < starts; i++ {
		d, err := os.MkdirTemp(tmpRoot, p.w.name+"-")
		if err != nil {
			return nil, err
		}
		args := append(slices.Clone(argv), serverArgs(p.w, d)...)
		if spansPath != "" {
			args = append(args, "-spans", spansPath)
		}
		s, setup, err := startServer(ctx, args)
		if err != nil {
			os.RemoveAll(d)
			return nil, err
		}
		ps.setups = append(ps.setups, setup)
		if i == starts-1 {
			srv, dir = s, d
			break
		}
		// Set-up probes hold no state worth draining.
		s.kill()
		os.RemoveAll(d)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(probeGap):
		}
	}
	pid := srv.pid()
	procs, err := serverProcs(pid)
	if err != nil {
		return nil, err
	}
	ps.serverProcs = procs

	pl, ol := newLane(srv.base), newLane(srv.base)
	defer pl.close()
	defer ol.close()
	var cpu0 float64
	var cpuErr error
	ps.load = runLoad(ctx, p, pl, ol, func() { cpu0, cpuErr = cpuMs(pid) })
	cpu1, err := cpuMs(pid)
	if err = errors.Join(ctx.Err(), cpuErr, err); err != nil {
		return nil, err
	}
	ps.cpuMs = cpu1 - cpu0
	if ps.stats, err = fetchStats(ctx, srv.base); err != nil {
		return nil, err
	}
	ps.answers, ps.sweepFailed = sweep(ctx, p, pl)
	status, err := procStatus(pid)
	if err != nil {
		return nil, err
	}
	if ps.rssKB, err = statusKB(status, "VmHWM"); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if ps.spans, err = readSpans(spansPath); err != nil {
			return nil, fmt.Errorf("read spans: %w", err)
		}
	}
	return ps, nil
}

// serverProcs is the server's GOMAXPROCS: the GOMAXPROCS it inherits from
// this process's environment, or else the size of its CPU affinity set.
func serverProcs(pid int) (int, error) {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return strconv.Atoi(v)
	}
	status, err := procStatus(pid)
	if err != nil {
		return 0, err
	}
	list, err := statusField(status, "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	return cpuListLen(list)
}

func fetchStats(ctx context.Context, base string) (api.Stats, error) {
	var st api.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	client := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// windowOutcomes splits a pass's requests into those of the measured window.
func windowOutcomes(p *plan, ps *pass) (predicts, observes []outcome, samples int) {
	for _, o := range ps.load.predicts {
		if o.due >= ps.load.windowStart {
			predicts = append(predicts, o)
		}
	}
	for i, o := range ps.load.observes {
		if ps.load.observeInWindow(p, i) {
			observes = append(observes, o)
			if o.ok() {
				samples += len(p.observe[i].ids)
			}
		}
	}
	return predicts, observes, samples
}

// endToEnd adds the end-to-end metrics of an untraced pass.
func endToEnd(r *report, p *plan, ps *pass) {
	// The fastest start, not the median: a start is the same CPU-bound work
	// every time, and the host only ever adds time to it. On the reference
	// host a run's median start swung by a fifth to a quarter from run to run
	// with the host's slow spells; its fastest start by under a tenth.
	r.add("setup_s", slices.Min(ps.setups).Seconds(), "s")

	predicts, observes, samples := windowOutcomes(p, ps)
	lat := func(outs []outcome) []float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = o.latencyMs()
		}
		return xs
	}
	predictMs, observeMs := lat(predicts), lat(observes)
	r.pct("predict_p50_ms", predictMs, 0.5, "ms")
	r.pct("predict_p90_ms", predictMs, 0.9, "ms")
	r.pct("observe_p50_ms", observeMs, 0.5, "ms")
	r.pct("observe_p90_ms", observeMs, 0.9, "ms")
	// The p99 is recorded where ten samples lie beyond it (a closed-loop
	// durable-ingest window can hold fewer than 1000 predicts).
	if v, err := percentile(predictMs, 0.99); err == nil {
		r.add("predict_p99_ms", v, "ms")
	}

	// Acked samples over the span from the first due observe to the last ack.
	var first, last time.Duration = -1, 0
	for _, o := range observes {
		if first < 0 || o.due < first {
			first = o.due
		}
		if o.ok() {
			last = max(last, o.done)
		}
	}
	r.add("learn_samples_per_s", float64(samples)/(last-first).Seconds(), "samples/s")

	correct, total := 0, 0
	for _, answers := range ps.answers {
		for i, c := range answers {
			total++
			if c == p.in.ds.Test[i].Label {
				correct++
			}
		}
	}
	r.add("final_acc_pct", 100*float64(correct)/float64(total), "%")

	answered := 0
	for _, o := range predicts {
		if o.ok() {
			answered++
		}
	}
	r.add("cpu_ms_per_op", ps.cpuMs/float64(answered+samples), "ms")
	r.add("rss_peak_mb", float64(ps.rssKB)/1024, "MB")
	// Recorded, not gated: across ten seeds on the reference host the predict
	// p90 spread up to 0.35 of its median on fleet-zipf, the p99 0.13-0.50,
	// and image-serve's accuracy (random backbone features, near chance)
	// 0.6-1.1 (bench/README.md).
	r.info("predict_p90_ms", "predict_p99_ms", "final_acc_pct")
}

// check applies the correctness gate to a pass: every observe acknowledged
// in stream order, every sweep answer equal to the in-process replay's, the
// generator on schedule, and (fleet) enough distinct users touched.
func check(r *report, p *plan, ref *reference, ps *pass) {
	if len(ps.load.observes) != len(p.observe) {
		r.fail("stream", "%d of %d observes sent", len(ps.load.observes), len(p.observe))
	}
	next := map[string]int{}
	for i, o := range ps.load.observes {
		u := p.observe[i].user
		switch {
		case !o.ok():
			r.fail("stream", "observe %d failed (HTTP %d): the learned stream is unknown", i, o.status)
			return
		case o.batch != next[u]:
			r.fail("stream", "observe %d acknowledged as batch %d of user %q, want %d", i, o.batch, u, next[u])
			return
		}
		next[u]++
	}
	for u, want := range ref.answers {
		got := ps.answers[u]
		diff := 0
		for i := range want {
			if got[i] != want[i] {
				diff++
			}
		}
		if diff > 0 {
			r.fail("prediction", "user %q: %d of %d sweep answers differ from the in-process replay", u, diff, len(want))
		}
	}
	if v, err := percentile(lateMs(ps.load), 0.99); err == nil && v > maxLateMs {
		r.fail("generator", "gen.late_ms.p99 %.2f ms > %g ms: the generator could not keep its schedule", v, maxLateMs)
	}
	if p.w.fleet && (ps.stats.Fleet == nil || ps.stats.Fleet.UsersKnown < minUsersTouched) {
		n := int64(0)
		if ps.stats.Fleet != nil {
			n = ps.stats.Fleet.UsersKnown
		}
		r.fail("users", "the fleet saw %d distinct users, want >= %d", n, minUsersTouched)
	}
}

// maxLateMs bounds the generator's own p99 lateness; beyond it the load was
// not the load the plan describes.
const maxLateMs = 5.0

// lateMs is the generator's lateness on every request of the load.
func lateMs(load *loadResult) []float64 {
	var late []float64
	for _, o := range load.all() {
		late = append(late, ms(o.late))
	}
	return late
}
