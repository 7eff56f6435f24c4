package exp

import (
	"math"
	"testing"

	"chameleon/internal/cl"
	"chameleon/internal/data"
	"chameleon/internal/parallel"
)

// perSampleAccuracy pins each method's Table-I-config accuracy as measured
// when heads still trained one sample at a time (DER, LwF, EWC++ and GSS's
// sketches throughout; every method at B=1), identical at workers 1 and 8.
var perSampleAccuracy = map[string]float64{
	"joint": 0.65, "finetune": 0.35, "ewcpp": 0.36, "lwf": 0.36, "slda": 0.76,
	"gss": 0.51, "er": 0.48, "der": 0.52, "latent": 0.49, "chameleon": 0.62,
}

// TestBatchTrainAccuracyParityAllMethods is the end-to-end acceptance gate for
// the single batched training path: every method family — core Chameleon
// plus the nine baselines — must land within ±0.5 accuracy points of its
// pinned per-sample accuracy on a full Table-I-config stream, at worker
// counts 1 and 8. The fp32 batched forward reassociates differently from the
// per-sample GEMV, so exact weights are not expected; decision-level parity
// is.
func TestBatchTrainAccuracyParityAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("batch-train parity runs full streams per method; run without -short")
	}
	sc := TestScale()
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(0)
	opts := data.StreamOptions{BatchSize: 10}
	for _, method := range Methods() {
		want, ok := perSampleAccuracy[method]
		if !ok {
			t.Fatalf("no pinned per-sample accuracy for method %s", method)
		}
		spec := MethodSpec{Name: method, Buffer: 40, ST: sc.ChameleonST}
		for _, w := range []int{1, 8} {
			parallel.SetWorkers(w)
			l, err := NewLearner(spec, set, sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			acc := cl.RunOnline(l, set.Stream(1, opts), set.Test).AccAll
			t.Logf("%s workers=%d: batched %.4f, pinned per-sample %.4f", method, w, acc, want)
			if diff := math.Abs(acc - want); diff > 0.005 {
				t.Errorf("%s workers=%d: batched accuracy %.4f vs pinned per-sample %.4f differ by %.4f (> 0.5 pt)",
					method, w, acc, want, diff)
			}
		}
	}
}

// TestRef64BatchedFullStreamBitIdentity is the reference-tier acceptance gate:
// the fp64 batched path must be bit-identical to the fp64 per-sample path over
// a complete Table-I-config stream — same final weights, same accuracy.
func TestRef64BatchedFullStreamBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fp64 bit-identity runs full streams; run without -short")
	}
	sc := TestScale()
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := MethodSpec{Name: "finetune"}
	opts := data.StreamOptions{BatchSize: 10}
	run := func(batched bool) (*cl.Ref64, float64) {
		l, err := NewRef64Learner(spec, set, sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := l.(*cl.Ref64)
		ref.Batched = batched
		return ref, cl.RunOnline(ref, set.Stream(1, opts), set.Test).AccAll
	}
	serial, accSerial := run(false)
	batched, accBatched := run(true)
	if accSerial != accBatched {
		t.Errorf("fp64 accuracies diverge: per-sample %.6f vs batched %.6f", accSerial, accBatched)
	}
	ps, pb := serial.Net.Params(), batched.Net.Params()
	for i := range ps {
		ds, db := ps[i].Data.Data(), pb[i].Data.Data()
		for j := range ds {
			if ds[j] != db[j] {
				t.Fatalf("fp64 param %q[%d] diverges: %v vs %v", ps[i].Name, j, ds[j], db[j])
			}
		}
	}
}
