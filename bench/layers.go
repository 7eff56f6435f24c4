package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// learnerSpanNames are the spans the traced learner decorator emits; the
// serving layer's busy time is their sum.
var learnerSpanNames = map[string]bool{
	"cl.predict_batch": true, "core.observe": true, "learner.snapshot": true, "learner.restore": true, "fleet.new": true,
}

// parentKinds lists, per learner span, the request kinds that can contain it,
// most likely first: a predict batch runs inside a predict, an observe (and
// the observe log's snapshot refresh) inside an observe, and a fault-in inside
// either.
var parentKinds = map[string][]string{
	"cl.predict_batch": {"serve.predict"},
	"core.observe":     {"serve.observe"},
	"learner.snapshot": {"serve.observe", "serve.predict"},
	"learner.restore":  {"serve.predict", "serve.observe"},
	"fleet.new":        {"serve.predict", "serve.observe"},
}

// requestUser returns the fleet user of a request id ("p12", "o3", "s40").
func requestUser(p *plan, req string) string {
	if len(req) < 2 {
		return ""
	}
	i, err := strconv.Atoi(req[1:])
	if err != nil || i < 0 {
		return ""
	}
	switch req[0] {
	case 'p':
		if i < len(p.predict) {
			return p.predict[i].user
		}
	case 'o':
		if i < len(p.observe) {
			return p.observe[i].user
		}
	case 's':
		if users := p.sweepUsers(); i/len(p.in.ds.Test) < len(users) {
			return users[i/len(p.in.ds.Test)]
		}
	}
	return ""
}

// clientSpans turns the generator's outcomes into client spans.
func clientSpans(p *plan, load *loadResult) []span {
	base := load.start.UnixNano()
	var out []span
	add := func(name, req string, o outcome) {
		out = append(out, span{ID: "c:" + req, Name: name, Req: req, User: requestUser(p, req),
			DueNs: base + int64(o.due), StartNs: base + int64(o.sent), EndNs: base + int64(o.done)})
	}
	for i, o := range load.predicts {
		add("client.predict", fmt.Sprintf("p%d", i), o)
	}
	for i, o := range load.observes {
		add("client.observe", fmt.Sprintf("o%d", i), o)
	}
	return out
}

// linkSpans sets Parent on the server's spans: a request span's parent is the
// client span with its X-Request-Id, and a learner span's parent is the one
// request span of a compatible kind and the same user that contains it. At
// most one request of each kind is in flight, so that span is unique.
func linkSpans(p *plan, spans []span, clients map[string]bool) {
	byKind := map[string][]int{}
	for i, s := range spans {
		if s.Req == "" {
			continue
		}
		spans[i].User = requestUser(p, s.Req)
		if clients["c:"+s.Req] {
			spans[i].Parent = "c:" + s.Req
		}
		byKind[s.Name] = append(byKind[s.Name], i)
	}
	for _, idx := range byKind {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].StartNs < spans[idx[b]].StartNs })
	}
	for i, s := range spans {
		for _, kind := range parentKinds[s.Name] {
			idx := byKind[kind]
			// The last request of this kind that started before the span.
			k := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].StartNs > s.StartNs }) - 1
			if k < 0 {
				continue
			}
			r := spans[idx[k]]
			if r.EndNs >= s.EndNs && r.User == s.User {
				spans[i].Parent = r.ID
				break
			}
		}
	}
}

// layerMetrics adds the span-derived per-layer metrics of a traced pass.
// Only spans that start inside the load count; the sweep and the drain are
// excluded.
func layerMetrics(r *report, p *plan, ps *pass) {
	spans := ps.spans
	from := ps.load.start.UnixNano()
	to := from + int64(ps.load.end)
	inLoad := func(s span) bool { return s.StartNs >= from && s.StartNs <= to }

	child := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent != "" && learnerSpanNames[s.Name] {
			child[s.Parent] += s.dur()
		}
	}
	durs := map[string][]float64{} // learner span name → ms
	var predictWait, observeWait []float64
	var busy time.Duration
	predicts := 0
	for _, s := range spans {
		if !inLoad(s) {
			continue
		}
		switch {
		case s.Name == "serve.predict":
			predicts++
			predictWait = append(predictWait, ms(s.dur()-child[s.ID]))
		case s.Name == "serve.observe":
			observeWait = append(observeWait, ms(s.dur()-child[s.ID]))
		case learnerSpanNames[s.Name]:
			busy += s.dur()
			durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		}
	}
	r.pct("serve.predict_wait_ms.p50", predictWait, 0.5, "ms")
	r.pct("serve.predict_wait_ms.p99", predictWait, 0.99, "ms")
	r.pct("serve.observe_wait_ms.p50", observeWait, 0.5, "ms")
	calls := len(durs["cl.predict_batch"])
	r.add("serve.predict_batch_size.mean", float64(predicts)/float64(max(calls, 1)), "requests/call")
	r.add("serve.engine_busy_frac", float64(busy)/float64(ps.load.end), "fraction")
	r.add("serve.shed", float64(ps.stats.PredictShed+ps.stats.ObserveShed), "count")
	timeouts := 0
	for _, o := range ps.load.all() {
		if o.status == http.StatusGatewayTimeout {
			timeouts++
		}
	}
	r.add("serve.timeouts", float64(timeouts), "count")

	batchUs := make([]float64, calls)
	for i, v := range durs["cl.predict_batch"] {
		batchUs[i] = 1000 * v
	}
	r.pct("cl.predict_batch_us.p50", batchUs, 0.5, "us")
	r.add("cl.predict_batch.calls", float64(calls), "count")
	r.pct("core.observe_ms.p50", durs["core.observe"], 0.5, "ms")
	r.pct("core.observe_ms.p90", durs["core.observe"], 0.9, "ms")

	requests := float64(len(ps.load.predicts) + len(ps.load.observes))
	if f := ps.stats.Fleet; f != nil {
		r.add("fleet.users_touched", float64(f.UsersKnown), "count")
		r.add("fleet.fault_ins_per_krequest", float64(f.FaultIns)/requests*1000, "count/kreq")
		r.add("fleet.evictions_per_krequest", float64(f.Evictions)/requests*1000, "count/kreq")
	} else {
		r.add("fleet.users_touched", 1, "count")
		r.add("fleet.fault_ins_per_krequest", 0, "count/kreq")
		r.add("fleet.evictions_per_krequest", 0, "count/kreq")
	}
	// Construction, fault-in and eviction happen during the load only on
	// fleet-zipf (and the observe log's snapshot refresh on durable-ingest);
	// a workload that never makes the call reads 0.
	for _, m := range []struct{ name, span string }{
		{"fleet.new_ms.p50", "fleet.new"},
		{"learner.restore_ms.p50", "learner.restore"},
		{"learner.snapshot_ms.p50", "learner.snapshot"},
	} {
		if len(durs[m.span]) == 0 {
			r.add(m.name, 0, "ms")
			continue
		}
		r.pct(m.name, durs[m.span], 0.5, "ms")
	}
}
