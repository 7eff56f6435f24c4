package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/replication"
	"chameleon/internal/serve"
)

// Direct-timing sample sizes. A p99 needs 1000 samples to keep ten beyond
// it; a p50 needs twenty.
const (
	nTail   = 1200
	nMedian = 100
)

// timeN calls fn n times and returns each call's duration.
func timeN(n int, fn func(i int) error) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func toUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// direct times the public functions each layer is built on, on the
// workload's own inputs, and adds their metrics to r. dir is a scratch
// directory for the files it writes.
func direct(r *report, p *plan, ref *reference, dir string) error {
	// api: strict JSON decode of the workload's bodies, as the server does it.
	decode := func(body []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	var obsBodies, predBodies [][]byte
	for i := 0; i < nMedian; i++ {
		o := p.observe[i%len(p.observe)]
		obsBodies = append(obsBodies, p.wire.observeBody(o.ids, o.domain, o.user))
	}
	for i := 0; i < nMedian; i++ {
		q := p.predict[i%len(p.predict)]
		predBodies = append(predBodies, p.wire.predictBody(q.test, q.user))
	}
	d, err := timeN(nMedian, func(i int) error { return decode(obsBodies[i], &api.ObserveRequest{}) })
	if err != nil {
		return fmt.Errorf("decode observe: %w", err)
	}
	r.pct("api.decode_observe_ms.p50", toMs(d), 0.5, "ms")
	if d, err = timeN(nMedian, func(i int) error { return decode(predBodies[i], &api.PredictRequest{}) }); err != nil {
		return fmt.Errorf("decode predict: %w", err)
	}
	r.pct("api.decode_predict_us.p50", toUs(d), 0.5, "us")
	r.add("api.observe_body_kb", mean(lengths(obsBodies))/1000, "KB")
	r.add("api.predict_body_kb", mean(lengths(predBodies))/1000, "KB")

	// mobilenet: backbone extraction per frame.
	frames := p.in.ds.Train
	d, _ = timeN(nMedian, func(i int) error {
		ref.backbone.ExtractLatent(frames[i%len(frames)].Image)
		return nil
	})
	r.pct("mobilenet.extract_ms.p50", toMs(d), 0.5, "ms")

	// replication: one durable append per observe batch, fsync each.
	wlog, err := replication.Open(filepath.Join(dir, "wal"), replication.Options{SyncEvery: 1})
	if err != nil {
		return fmt.Errorf("observe log: %w", err)
	}
	d, err = timeN(nTail, func(i int) error {
		o := p.observe[i%len(p.observe)]
		rec := &api.LogRecord{User: o.user, Batch: i, Domain: o.domain, Samples: make([]api.LogSample, len(o.ids))}
		for j, id := range o.ids {
			rec.Samples[j] = api.LogSample{Latent: ref.trainZ(id).Data(), Label: p.in.ds.Train[id].Label}
		}
		_, err := wlog.Append(rec)
		return err
	})
	if cerr := wlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("observe log append: %w", err)
	}
	r.pct("replication.append_us.p50", toUs(d), 0.5, "us")
	r.pct("replication.append_us.p99", toUs(d), 0.99, "us")
	walBytes, err := dirSize(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	r.add("replication.bytes_per_batch", float64(walBytes)/nTail, "B")

	// checkpoint: the drain checkpoint of the reference learner's final state.
	user := p.sweepUsers()[0]
	l := ref.learners[user]
	snap := cl.Caps(l).Snapshotter
	state, err := snap.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	ck := filepath.Join(dir, "learner.ckpt")
	st := serve.State{Method: l.Name(), Batches: len(p.observe), Learner: state}
	if d, err = timeN(nTail, func(int) error { return checkpoint.Save(ck, "serve.state", st) }); err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	r.pct("checkpoint.save_ms.p50", toMs(d), 0.5, "ms")
	r.pct("checkpoint.save_ms.p99", toMs(d), 0.99, "ms")
	if d, err = timeN(nMedian, func(int) error { return checkpoint.Load(ck, "serve.state", &serve.State{}) }); err != nil {
		return fmt.Errorf("checkpoint load: %w", err)
	}
	r.pct("checkpoint.load_ms.p50", toMs(d), 0.5, "ms")
	fi, err := os.Stat(ck)
	if err != nil {
		return err
	}
	r.add("checkpoint.frame_kb", float64(fi.Size())/1000, "KB")
	return nil
}

func lengths(bs [][]byte) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(len(b))
	}
	return out
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
