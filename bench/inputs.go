package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"chameleon/internal/api"
	"chameleon/internal/data"
	"chameleon/internal/exp"
	"chameleon/internal/tensor"
)

// inputs is the material every workload draws requests from: a CORe50-shaped
// dataset (labels, domains, raw 3×32×32 frames) and the latent of every frame.
type inputs struct {
	source string
	ds     *data.Dataset
	trainZ []*tensor.Tensor // latent of ds.Train[i]
	testZ  []*tensor.Tensor // latent of ds.Test[i]
}

// core50Inputs loads the test-scale CORe50 latents through the repository's
// own pipeline (pretrained backbone, cached under cacheDir after the first
// build) and regenerates the frames they were extracted from.
func core50Inputs(cacheDir string, logf func(string, ...any)) (*inputs, error) {
	sc := exp.TestScale()
	set, err := exp.BuildLatentSet("core50", sc, cacheDir, logf)
	if err != nil {
		return nil, fmt.Errorf("latent set: %w", err)
	}
	ds, err := data.Generate(sc.Core50)
	if err != nil {
		return nil, fmt.Errorf("frames: %w", err)
	}
	if len(set.Train) != len(ds.Train) || len(set.Test) != len(ds.Test) {
		return nil, fmt.Errorf("latent set has %d+%d samples, frames %d+%d", len(set.Train), len(set.Test), len(ds.Train), len(ds.Test))
	}
	in := &inputs{source: "core50 test-scale latents and frames", ds: ds}
	for i, s := range set.Train {
		if s.Label != ds.Train[i].Label {
			return nil, fmt.Errorf("latent set train sample %d has label %d, frame %d", i, s.Label, ds.Train[i].Label)
		}
		in.trainZ = append(in.trainZ, s.Z)
	}
	for i, s := range set.Test {
		if s.Label != ds.Test[i].Label {
			return nil, fmt.Errorf("latent set test sample %d has label %d, frame %d", i, s.Label, ds.Test[i].Label)
		}
		in.testZ = append(in.testZ, s.Z)
	}
	return in, nil
}

// syntheticInputs is a small CORe50-shaped set with random latents: no
// pipeline build, for tests.
func syntheticInputs(seed int64) (*inputs, error) {
	cfg := exp.TestScale().Core50
	cfg.SessionsPerClassDomain, cfg.FramesPerSession, cfg.TestFramesPerClassDomain = 1, 4, 2
	ds, err := data.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	latent := func() *tensor.Tensor { return tensor.RandNormal(rng, 1, 128, 2, 2) }
	in := &inputs{source: "synthetic", ds: ds}
	for range ds.Train {
		in.trainZ = append(in.trainZ, latent())
	}
	for range ds.Test {
		in.testZ = append(in.testZ, latent())
	}
	return in, nil
}

// wire holds every payload pre-encoded with the internal/api types, so while
// the clock runs the generator only concatenates bytes. A body assembled here
// is byte-identical to json.Marshal of the matching api request.
type wire struct {
	sample [][]byte // json(api.ObserveSample) per train sample
	query  [][]byte // json(api.PredictRequest) per test sample, braces stripped
}

func encodeWire(in *inputs, images bool) (*wire, error) {
	w := &wire{}
	for i, s := range in.ds.Train {
		sm := api.ObserveSample{Label: s.Label}
		if images {
			sm.Image = s.Image.Data()
		} else {
			sm.Latent = in.trainZ[i].Data()
		}
		b, err := json.Marshal(sm)
		if err != nil {
			return nil, err
		}
		w.sample = append(w.sample, b)
	}
	for i, s := range in.ds.Test {
		var req api.PredictRequest
		if images {
			req.Image = s.Image.Data()
		} else {
			req.Latent = in.testZ[i].Data()
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		w.query = append(w.query, b[1:len(b)-1])
	}
	return w, nil
}

// userField is the `"user":"…",` prefix of a fleet request ("" otherwise).
func userField(user string) []byte {
	if user == "" {
		return nil
	}
	q, _ := json.Marshal(user) // marshalling a string cannot fail
	return append(append([]byte(`"user":`), q...), ',')
}

// predictBody is json(api.PredictRequest{User: user, <payload of test sample>}).
func (w *wire) predictBody(test int, user string) []byte {
	u := userField(user)
	b := make([]byte, 0, 2+len(u)+len(w.query[test]))
	b = append(b, '{')
	b = append(b, u...)
	b = append(b, w.query[test]...)
	return append(b, '}')
}

// observeBody is json(api.ObserveRequest{User: user, Samples: <train samples
// ids>, Domain: domain}).
func (w *wire) observeBody(ids []int, domain int, user string) []byte {
	u := userField(user)
	n := 32 + len(u)
	for _, id := range ids {
		n += len(w.sample[id]) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, '{')
	b = append(b, u...)
	b = append(b, `"samples":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, w.sample[id]...)
	}
	b = append(b, ']')
	if domain != 0 {
		b = fmt.Appendf(b, `,"domain":%d`, domain)
	}
	return append(b, '}')
}
