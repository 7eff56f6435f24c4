package exp

import (
	"testing"

	"chameleon/internal/data"
)

// TestWarmCacheBackboneExtractsCachedLatents pins the cache-hit path of the
// pipeline: a set loaded from the latent cache must carry the pretrained
// backbone, so extracting a regenerated training frame reproduces its cached
// latent bit for bit (a server answering image requests on a warm cache sees
// the same features the learner trained on).
func TestWarmCacheBackboneExtractsCachedLatents(t *testing.T) {
	sc := TestScale()
	// The first build fills the cache if it is cold; the second one loads it.
	if _, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil); err != nil {
		t.Fatal(err)
	}
	loaded := false
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), func(format string, _ ...any) {
		if format == "loaded cached latents: %s" {
			loaded = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("second build did not load the latent cache")
	}
	dcfg, _ := sc.DatasetConfig("core50")
	ds, err := data.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(ds.Train) / 2, len(ds.Train) - 1} {
		sm := ds.Train[i]
		got := set.Backbone.ExtractLatent(sm.Image).Data()
		want := set.Train[sm.ID].Z.Data()
		if len(got) != len(want) {
			t.Fatalf("frame %d: latent has %d elements, cached %d", sm.ID, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("frame %d: element %d extracts %v, cached %v", sm.ID, k, got[k], want[k])
			}
		}
	}
}
