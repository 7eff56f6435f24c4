package main

import (
	"fmt"
	"io"

	"chameleon/internal/cl"
	"chameleon/internal/mobilenet"
	"chameleon/internal/tensor"
)

// reference is the correctness reference of a plan: its observe stream fed
// serially, in-process, to learners built exactly as the server builds them
// (same flags, same backbone, same order and batch indices).
type reference struct {
	// answers[user][i] is the class the reference learner gives held-out
	// sample i, for every sweep user.
	answers map[string][]int
	// learners are the reference learners after the stream.
	learners map[string]cl.Learner
	backbone *mobilenet.Model
	// trainZ is the latent the server sees for each train sample: the cached
	// latent, or for image workloads the backbone's extraction of the frame.
	trainZ func(id int) *tensor.Tensor
}

func replay(p *plan) (*reference, error) {
	spec, err := parseServerFlags(serverArgs(p.w, "replay"), io.Discard)
	if err != nil {
		return nil, fmt.Errorf("server flags: %w", err)
	}
	backbone, err := spec.backbone()
	if err != nil {
		return nil, err
	}
	ref := &reference{answers: map[string][]int{}, learners: map[string]cl.Learner{}, backbone: backbone}
	ref.trainZ = func(id int) *tensor.Tensor { return p.in.trainZ[id] }
	testZ := p.in.testZ
	if p.w.images {
		extracted := map[int]*tensor.Tensor{}
		ref.trainZ = func(id int) *tensor.Tensor {
			z, ok := extracted[id]
			if !ok {
				z = backbone.ExtractLatent(p.in.ds.Train[id].Image)
				extracted[id] = z
			}
			return z
		}
		testZ = make([]*tensor.Tensor, len(p.in.ds.Test))
		for i, s := range p.in.ds.Test {
			testZ[i] = backbone.ExtractLatent(s.Image)
		}
	}
	for _, u := range p.sweepUsers() {
		l, err := spec.learner(backbone, u, nil)
		if err != nil {
			return nil, err
		}
		idx := 0
		for _, o := range p.observe {
			if o.user != u {
				continue
			}
			// The server builds each sample from the wire alone: latent,
			// label and the batch's domain, with no pool ID.
			b := cl.LatentBatch{Samples: make([]cl.LatentSample, len(o.ids)), Index: idx, Domain: o.domain}
			for j, id := range o.ids {
				b.Samples[j] = cl.LatentSample{Z: ref.trainZ(id), Label: p.in.ds.Train[id].Label, Domain: o.domain}
			}
			l.Observe(b)
			idx++
		}
		out := make([]int, len(testZ))
		if err := cl.PredictInto(l, testZ, out); err != nil {
			return nil, err
		}
		ref.answers[u], ref.learners[u] = out, l
	}
	return ref, nil
}
