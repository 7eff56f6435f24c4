package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"chameleon/internal/api"
)

// The generator assembles bodies from pre-encoded pieces; they must be the
// bytes json.Marshal gives for the api request they stand for.
func TestWireBodiesMatchMarshal(t *testing.T) {
	in, err := syntheticInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, images := range []bool{false, true} {
		w, err := encodeWire(in, images)
		if err != nil {
			t.Fatal(err)
		}
		payload := func(id int, test bool) ([]float32, []float32) {
			s, z := in.ds.Train[id], in.trainZ[id]
			if test {
				s, z = in.ds.Test[id], in.testZ[id]
			}
			if images {
				return nil, s.Image.Data()
			}
			return z.Data(), nil
		}
		for _, user := range []string{"", "u17"} {
			lat, img := payload(3, true)
			want, _ := json.Marshal(api.PredictRequest{User: user, Latent: lat, Image: img})
			if got := w.predictBody(3, user); !bytes.Equal(got, want) {
				t.Fatalf("images=%v user=%q: predict body differs from json.Marshal", images, user)
			}
			for _, domain := range []int{0, 4} {
				ids := []int{5, 0, 9}
				req := api.ObserveRequest{User: user, Domain: domain}
				for _, id := range ids {
					lat, img := payload(id, false)
					req.Samples = append(req.Samples, api.ObserveSample{Latent: lat, Image: img, Label: in.ds.Train[id].Label})
				}
				want, _ := json.Marshal(req)
				if got := w.observeBody(ids, domain, user); !bytes.Equal(got, want) {
					t.Fatalf("images=%v user=%q domain=%d: observe body differs from json.Marshal", images, user, domain)
				}
			}
		}
	}
}
