package cl

import (
	"encoding/gob"
	"fmt"
	"os"

	"chameleon/internal/data"
	"chameleon/internal/mobilenet"
)

// latentSetDisk is the on-disk form of a LatentSet: the extracted latents
// plus the structural configs, with the (large, re-derivable) images dropped.
type latentSetDisk struct {
	Version  string
	ModelCfg mobilenet.Config
	Dataset  data.Dataset
	Train    []LatentSample
	Test     []LatentSample
}

// cacheVersion guards cached latents against generator/backbone changes.
const cacheVersion = "chameleon-latents-v1"

// SaveLatentSet writes the set's latents and structural metadata to path.
// Images are omitted: a loaded set supports streaming, training and
// evaluation, but not re-extraction.
func SaveLatentSet(path string, set *LatentSet) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cl: save latents: %w", err)
	}
	defer f.Close()
	ds := *set.Dataset
	ds.Train = stripImages(ds.Train)
	ds.Test = stripImages(ds.Test)
	disk := latentSetDisk{
		Version:  cacheVersion,
		ModelCfg: set.Backbone.Cfg,
		Dataset:  ds,
		Train:    set.Train,
		Test:     set.Test,
	}
	if err := gob.NewEncoder(f).Encode(&disk); err != nil {
		return fmt.Errorf("cl: save latents: %w", err)
	}
	return f.Sync()
}

func stripImages(in []data.Sample) []data.Sample {
	out := make([]data.Sample, len(in))
	for i, s := range in {
		s.Image = nil
		out[i] = s
	}
	return out
}

// LoadLatentSet reads a set written by SaveLatentSet. The backbone model is
// rebuilt from its config for structural queries (latent shape, head
// construction); its feature weights are NOT restored, so until the caller
// copies the pretrained features in (exp.BuildLatentSetOpts does), the
// backbone extracts new images through random features.
func LoadLatentSet(path string) (*LatentSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cl: load latents: %w", err)
	}
	defer f.Close()
	var disk latentSetDisk
	if err := gob.NewDecoder(f).Decode(&disk); err != nil {
		return nil, fmt.Errorf("cl: load latents: %w", err)
	}
	if disk.Version != cacheVersion {
		return nil, fmt.Errorf("cl: latent cache version %q, want %q", disk.Version, cacheVersion)
	}
	m, err := mobilenet.New(disk.ModelCfg)
	if err != nil {
		return nil, fmt.Errorf("cl: load latents: rebuild backbone: %w", err)
	}
	ds := disk.Dataset
	return &LatentSet{Backbone: m, Dataset: &ds, Train: disk.Train, Test: disk.Test}, nil
}
