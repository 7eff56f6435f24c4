package baselines

import (
	"fmt"

	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/replay"
	"chameleon/internal/tensor"
)

// This file implements cl.Snapshotter for every baseline learner so grid runs
// can checkpoint and resume any method, not just Chameleon. The same rules as
// core apply: a snapshot holds mutable state only (weights, optimizer
// momentum, buffers, RNG positions, domain-boundary latches) and restores into
// a learner built with the identical Config; all restores validate before
// mutating and return errors — never panic — on corrupt or mismatched input.

// checkTensors validates a serialized tensor list against the snapshot's own
// head parameters, which SetState then validates against the head. Checking
// against the state rather than head.Params leaves a restored head's pending
// init undrawn.
func checkTensors(what string, ts []*tensor.Tensor, head cl.HeadState) error {
	ref := head.Params
	if len(ts) != len(ref) {
		return fmt.Errorf("baselines: %s has %d tensors, model has %d", what, len(ts), len(ref))
	}
	for i, t := range ts {
		if t == nil || ref[i] == nil || !t.SameShape(ref[i]) {
			return fmt.Errorf("baselines: %s tensor %d does not match the head state", what, i)
		}
	}
	return nil
}

func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	if ts == nil {
		return nil
	}
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// ---- Finetune -------------------------------------------------------------

type finetuneState struct {
	Head cl.HeadState
}

// Snapshot implements cl.Snapshotter.
func (f *Finetune) Snapshot() ([]byte, error) {
	return checkpoint.Encode(finetuneState{Head: f.head.State()})
}

// Restore implements cl.Snapshotter.
func (f *Finetune) Restore(data []byte) error {
	var st finetuneState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode finetune snapshot: %w", err)
	}
	return f.head.SetState(st.Head)
}

// ---- Joint ----------------------------------------------------------------

type jointState struct {
	Head cl.HeadState
	Pool []cl.LatentSample
	Rand checkpoint.RandState
}

// Snapshot implements cl.Snapshotter. JOINT's pool is the whole stream so
// far; its snapshots are proportionally large, which is the price of
// checkpointing an upper bound that keeps everything.
func (j *Joint) Snapshot() ([]byte, error) {
	return checkpoint.Encode(jointState{
		Head: j.head.State(),
		Pool: append([]cl.LatentSample(nil), j.pool...),
		Rand: j.src.State(),
	})
}

// Restore implements cl.Snapshotter.
func (j *Joint) Restore(data []byte) error {
	var st jointState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode joint snapshot: %w", err)
	}
	if err := j.head.SetState(st.Head); err != nil {
		return err
	}
	j.pool = append(j.pool[:0:0], st.Pool...)
	j.src.Restore(st.Rand)
	return nil
}

// ---- ER / DER (reservoir buffers) ----------------------------------------

type reservoirState struct {
	Head  cl.HeadState
	Items []replay.Item
	Seen  int
	Rand  checkpoint.RandState
}

func snapshotReservoir(head *cl.Head, buf *replay.Reservoir, src *checkpoint.Source) ([]byte, error) {
	items, seen := buf.State()
	return checkpoint.Encode(reservoirState{Head: head.State(), Items: items, Seen: seen, Rand: src.State()})
}

func restoreReservoir(name string, data []byte, head *cl.Head, buf *replay.Reservoir, src *checkpoint.Source) error {
	var st reservoirState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode %s snapshot: %w", name, err)
	}
	if err := head.SetState(st.Head); err != nil {
		return err
	}
	if err := buf.SetState(st.Items, st.Seen); err != nil {
		return err
	}
	src.Restore(st.Rand)
	return nil
}

// Snapshot implements cl.Snapshotter.
func (e *ER) Snapshot() ([]byte, error) { return snapshotReservoir(e.head, e.buf, e.src) }

// Restore implements cl.Snapshotter.
func (e *ER) Restore(data []byte) error { return restoreReservoir("er", data, e.head, e.buf, e.src) }

// Snapshot implements cl.Snapshotter. The buffered logits ride along inside
// the reservoir items; DER's replay loss depends on them.
func (d *DER) Snapshot() ([]byte, error) { return snapshotReservoir(d.head, d.buf, d.src) }

// Restore implements cl.Snapshotter.
func (d *DER) Restore(data []byte) error { return restoreReservoir("der", data, d.head, d.buf, d.src) }

// ---- Latent Replay --------------------------------------------------------

type latentState struct {
	Head  cl.HeadState
	Items []replay.Item
	Seen  int
	Rand  checkpoint.RandState
}

// Snapshot implements cl.Snapshotter.
func (l *LatentReplay) Snapshot() ([]byte, error) {
	return checkpoint.Encode(latentState{
		Head:  l.head.State(),
		Items: append([]replay.Item(nil), l.items...),
		Seen:  l.seen,
		Rand:  l.src.State(),
	})
}

// Restore implements cl.Snapshotter.
func (l *LatentReplay) Restore(data []byte) error {
	var st latentState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode latent-replay snapshot: %w", err)
	}
	if len(st.Items) > l.cfg.BufferSize {
		return fmt.Errorf("baselines: restoring %d items into capacity-%d latent buffer", len(st.Items), l.cfg.BufferSize)
	}
	if st.Seen < len(st.Items) {
		return fmt.Errorf("baselines: latent buffer seen %d < stored %d", st.Seen, len(st.Items))
	}
	if err := replay.CheckDtype(st.Items, l.codec != nil, "latent buffer"); err != nil {
		return err
	}
	if err := l.head.SetState(st.Head); err != nil {
		return err
	}
	l.items = append(l.items[:0:0], st.Items...)
	l.seen = st.Seen
	l.src.Restore(st.Rand)
	return nil
}

// ---- GSS ------------------------------------------------------------------

type gssState struct {
	Head   cl.HeadState
	Items  []replay.Item // GradSketch carries the per-item gradient sketch
	Scores []float64
	Rand   checkpoint.RandState
}

// Snapshot implements cl.Snapshotter.
func (g *GSS) Snapshot() ([]byte, error) {
	st := gssState{Head: g.head.State(), Rand: g.src.State()}
	st.Items = make([]replay.Item, len(g.buf))
	st.Scores = make([]float64, len(g.buf))
	for i, b := range g.buf {
		st.Items[i] = b.it
		st.Items[i].GradSketch = b.sketch
		st.Scores[i] = b.score
	}
	return checkpoint.Encode(st)
}

// Restore implements cl.Snapshotter. The projection matrix is not serialized:
// it is a pure function of (seed, SketchDim) and regenerates lazily on the
// next gradSketch call, identical to the one the snapshotting run used.
func (g *GSS) Restore(data []byte) error {
	var st gssState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode gss snapshot: %w", err)
	}
	if len(st.Items) != len(st.Scores) {
		return fmt.Errorf("baselines: gss snapshot has %d items but %d scores", len(st.Items), len(st.Scores))
	}
	if len(st.Items) > g.cfg.BufferSize {
		return fmt.Errorf("baselines: restoring %d items into capacity-%d gss buffer", len(st.Items), g.cfg.BufferSize)
	}
	for i, it := range st.Items {
		if it.GradSketch == nil || it.GradSketch.Len() != g.SketchDim {
			return fmt.Errorf("baselines: gss item %d sketch does not match SketchDim %d", i, g.SketchDim)
		}
	}
	if err := replay.CheckDtype(st.Items, g.codec != nil, "gss buffer"); err != nil {
		return err
	}
	if err := g.head.SetState(st.Head); err != nil {
		return err
	}
	g.buf = make([]gssItem, len(st.Items))
	for i, it := range st.Items {
		g.buf[i] = gssItem{it: it, score: st.Scores[i], sketch: it.GradSketch}
	}
	g.src.Restore(st.Rand)
	return nil
}

// ---- SLDA -----------------------------------------------------------------

type sldaState struct {
	Dim, Classes int
	Means        *tensor.Tensor
	Counts       []float64
	Cov          *tensor.Tensor
	N            float64
}

// Snapshot implements cl.Snapshotter. The snapshot is a function of the
// observed stream alone. The cached precision Λ is derived state and is not
// stored; the restored learner recomputes it on first Predict. Nor is the
// inversion count: predicts drive it, so it differs between a serving
// learner and one rebuilt from its observes. Payloads that still carry it
// decode with it ignored.
func (s *SLDA) Snapshot() ([]byte, error) {
	return checkpoint.Encode(sldaState{
		Dim: s.dim, Classes: s.classes,
		Means:  s.means.Clone(),
		Counts: append([]float64(nil), s.counts...),
		Cov:    s.cov.Clone(),
		N:      s.n,
	})
}

// Restore implements cl.Snapshotter.
func (s *SLDA) Restore(data []byte) error {
	var st sldaState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode slda snapshot: %w", err)
	}
	if st.Dim != s.dim || st.Classes != s.classes {
		return fmt.Errorf("baselines: slda snapshot is %dd/%d-class, learner is %dd/%d-class",
			st.Dim, st.Classes, s.dim, s.classes)
	}
	if st.Means == nil || !st.Means.SameShape(s.means) || st.Cov == nil || !st.Cov.SameShape(s.cov) {
		return fmt.Errorf("baselines: slda snapshot statistics do not match learner shapes")
	}
	if len(st.Counts) != s.classes || st.N < 0 {
		return fmt.Errorf("baselines: slda snapshot counts are inconsistent")
	}
	s.means.CopyFrom(st.Means)
	copy(s.counts, st.Counts)
	s.cov.CopyFrom(st.Cov)
	s.n = st.N
	// Λ and the per-class score cache are derived state: mark them stale so
	// the first prediction after resume rebuilds from the restored statistics.
	s.stale = true
	return nil
}

// ---- EWC++ ----------------------------------------------------------------

type ewcState struct {
	Head       cl.HeadState
	Fisher     []*tensor.Tensor
	Anchor     []*tensor.Tensor
	LastDomain int
	Seen       bool
}

// Snapshot implements cl.Snapshotter.
func (e *EWCPP) Snapshot() ([]byte, error) {
	return checkpoint.Encode(ewcState{
		Head:       e.head.State(),
		Fisher:     cloneTensors(e.fisher),
		Anchor:     cloneTensors(e.anchor),
		LastDomain: e.lastDomain,
		Seen:       e.seen,
	})
}

// Restore implements cl.Snapshotter.
func (e *EWCPP) Restore(data []byte) error {
	var st ewcState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode ewcpp snapshot: %w", err)
	}
	if err := checkTensors("ewcpp fisher", st.Fisher, st.Head); err != nil {
		return err
	}
	if err := checkTensors("ewcpp anchor", st.Anchor, st.Head); err != nil {
		return err
	}
	if err := e.head.SetState(st.Head); err != nil {
		return err
	}
	e.fisher = cloneTensors(st.Fisher)
	e.anchor = cloneTensors(st.Anchor)
	e.lastDomain = st.LastDomain
	e.seen = st.Seen
	return nil
}

// ---- LwF ------------------------------------------------------------------

type lwfState struct {
	Head       cl.HeadState
	Teacher    []*tensor.Tensor
	HasTeacher bool
	LastDomain int
	Seen       bool
}

// Snapshot implements cl.Snapshotter.
func (l *LwF) Snapshot() ([]byte, error) {
	return checkpoint.Encode(lwfState{
		Head:       l.head.State(),
		Teacher:    cloneTensors(l.teacher),
		HasTeacher: l.hasTeacher,
		LastDomain: l.lastDomain,
		Seen:       l.seen,
	})
}

// Restore implements cl.Snapshotter.
func (l *LwF) Restore(data []byte) error {
	var st lwfState
	if err := checkpoint.Decode(data, &st); err != nil {
		return fmt.Errorf("baselines: decode lwf snapshot: %w", err)
	}
	if st.HasTeacher {
		if err := checkTensors("lwf teacher", st.Teacher, st.Head); err != nil {
			return err
		}
	}
	if err := l.head.SetState(st.Head); err != nil {
		return err
	}
	if st.HasTeacher {
		l.teacher = cloneTensors(st.Teacher)
	} else {
		l.teacher = nil
	}
	l.hasTeacher = st.HasTeacher
	l.lastDomain = st.LastDomain
	l.seen = st.Seen
	return nil
}
