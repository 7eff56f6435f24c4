package exp

import (
	"math/rand"
	"testing"

	"chameleon/internal/cl"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/tensor"
)

// TestHeadInitDeferredUntilFirstUse pins when a learner's head draws its
// initial weights: on first use, once; never when a snapshot is restored
// before first use, as serve.Resume and a fleet fault-in do. EWC++ draws at
// construction, because its constructor snapshots the initial weights as its
// anchor; SLDA has no head. The stream crosses a domain boundary, so the
// snapshot carries LwF's teacher and EWC++'s consolidated anchor.
func TestHeadInitDeferredUntilFirstUse(t *testing.T) {
	const seed = 3
	model, err := mobilenet.New(mobilenet.DefaultConfig(4, seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	batch := cl.LatentBatch{}
	zs := make([]*tensor.Tensor, 4)
	for i := range zs {
		zs[i] = tensor.RandNormal(rng, 1, model.LatentShape...)
		batch.Samples = append(batch.Samples, cl.LatentSample{Z: zs[i], Label: i})
	}
	next := batch
	next.Index, next.Domain = 1, 1
	out := make([]int, len(zs))
	inits := obs.Default().Counter("cl_head_inits_total")
	sc := TestScale()
	for _, method := range Methods() {
		spec := MethodSpec{Name: method, Buffer: 8, ST: 4}
		mk := func() cl.Learner {
			l, err := NewLearnerOn(spec, model, 4, sc, seed, nil)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			return l
		}
		atConstruction, onFirstUse := int64(0), int64(1)
		switch method {
		case "ewcpp":
			atConstruction, onFirstUse = 1, 0
		case "slda":
			onFirstUse = 0
		}

		before := inits.Value()
		fresh := mk()
		if got := inits.Value() - before; got != atConstruction {
			t.Fatalf("%s: construction drew %d head inits, want %d", method, got, atConstruction)
		}
		if err := cl.PredictInto(fresh, zs, out); err != nil {
			t.Fatal(err)
		}
		fresh.Observe(batch)
		fresh.Observe(next)
		if got := inits.Value() - before; got != atConstruction+onFirstUse {
			t.Fatalf("%s: first use drew %d head inits in all, want %d", method, got, atConstruction+onFirstUse)
		}
		snap, err := cl.Caps(fresh).Snapshotter.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		before = inits.Value()
		restored := mk()
		if err := cl.Caps(restored).Snapshotter.Restore(snap); err != nil {
			t.Fatalf("%s: restore: %v", method, err)
		}
		if err := cl.PredictInto(restored, zs, out); err != nil {
			t.Fatal(err)
		}
		restored.Observe(next)
		if got := inits.Value() - before; got != atConstruction {
			t.Fatalf("%s: a restored learner drew %d head inits, want %d", method, got, atConstruction)
		}
	}
}
