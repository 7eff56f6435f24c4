package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"chameleon/internal/cl"
	"chameleon/internal/data"
	"chameleon/internal/mobilenet"
	"chameleon/internal/tensor"
)

// BuildLatentSet runs the full pipeline for one dataset at one scale:
//
//  1. generate a disjoint pretraining pool (the ImageNet stand-in),
//  2. pretrain the backbone end-to-end and freeze it,
//  3. generate the deployment benchmark,
//  4. extract latents for its train and test pools.
//
// The result is cached on disk under cacheDir (keyed by a hash of all
// configs), because every method and seed shares the same frozen features.
// Pass cacheDir = "" to disable caching.
func BuildLatentSet(datasetName string, sc Scale, cacheDir string, verbose func(format string, args ...any)) (*cl.LatentSet, error) {
	if verbose == nil {
		verbose = func(string, ...any) {}
	}
	dcfg, ok := sc.DatasetConfig(datasetName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown dataset %q (want core50 or openloris)", datasetName)
	}
	key := cacheKey(datasetName, sc)
	cachePath := ""
	if cacheDir != "" {
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("exp: cache dir: %w", err)
		}
		cachePath = filepath.Join(cacheDir, key+".latents")
		if set, err := cl.LoadLatentSet(cachePath); err == nil {
			verbose("loaded cached latents: %s", cachePath)
			// The cache holds latents, not weights: restore the pretrained
			// features so the set's backbone extracts new frames exactly as
			// the cached ones were.
			pm, err := pretrainedBackbone(sc, cacheDir, verbose)
			if err != nil {
				return nil, err
			}
			if err := set.Backbone.CopyFeaturesFrom(pm); err != nil {
				return nil, fmt.Errorf("exp: transfer features: %w", err)
			}
			return set, nil
		}
	}

	// 1–2. Pretrained backbone (cached independently of the dataset: both
	// benchmarks at a scale share one backbone, like sharing one ImageNet
	// checkpoint).
	pm, err := pretrainedBackbone(sc, cacheDir, verbose)
	if err != nil {
		return nil, err
	}

	// 3. Deployment benchmark.
	ds, err := data.Generate(dcfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %s data: %w", datasetName, err)
	}
	mCfg := sc.Model
	mCfg.NumClasses = dcfg.NumClasses
	mCfg.Seed = sc.Model.Seed + 1
	m, err := mobilenet.New(mCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: deployment model: %w", err)
	}
	if err := m.CopyFeaturesFrom(pm); err != nil {
		return nil, fmt.Errorf("exp: transfer features: %w", err)
	}

	// 4. Extraction.
	verbose("extracting latents for %d train + %d test frames...", ds.NumTrain(), ds.NumTest())
	set, err := cl.NewLatentSet(m, ds)
	if err != nil {
		return nil, fmt.Errorf("exp: extract: %w", err)
	}
	if cachePath != "" {
		if err := cl.SaveLatentSet(cachePath, set); err != nil {
			verbose("warning: could not cache latents: %v", err)
		} else {
			verbose("cached latents: %s", cachePath)
		}
	}
	return set, nil
}

// pretrainedBackbone builds (or loads from cache) the scale's frozen
// backbone: the full synthetic-pretraining phase that substitutes ImageNet.
func pretrainedBackbone(sc Scale, cacheDir string, verbose func(string, ...any)) (*mobilenet.Model, error) {
	cachePath := ""
	if cacheDir != "" {
		cachePath = filepath.Join(cacheDir, backboneKey(sc)+".model")
		if pm, err := mobilenet.Load(cachePath); err == nil {
			verbose("loaded cached backbone: %s", cachePath)
			return pm, nil
		}
	}
	// Pretraining pool: disjoint classes, its own domains.
	pcfg := data.Config{
		Name:       "pretrain",
		NumClasses: sc.PretrainClasses,
		NumDomains: 5, TestDomains: []int{4},
		Resolution:               sc.Model.Resolution,
		SessionsPerClassDomain:   sc.PretrainSessions,
		FramesPerSession:         sc.PretrainFrames,
		TestFramesPerClassDomain: 1,
		Severity:                 1.0,
		Seed:                     999,
	}
	pds, err := data.Generate(pcfg)
	if err != nil {
		return nil, fmt.Errorf("exp: pretrain data: %w", err)
	}
	verbose("pretraining backbone on %d frames (%d classes)...", pds.NumTrain(), sc.PretrainClasses)

	pmCfg := sc.Model
	pmCfg.NumClasses = sc.PretrainClasses
	pm, err := mobilenet.New(pmCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: pretrain model: %w", err)
	}
	imgs := make([]*tensor.Tensor, pds.NumTrain())
	labels := make([]int, pds.NumTrain())
	for _, s := range pds.Train {
		imgs[s.ID] = s.Image
		labels[s.ID] = s.Label
	}
	loss, err := pm.Pretrain(imgs, labels, mobilenet.PretrainConfig{
		Epochs: sc.PretrainEpochs, LR: sc.PretrainLR, Momentum: sc.PretrainMomentum,
		BatchSize: 8, Seed: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: pretrain: %w", err)
	}
	verbose("pretraining done (final loss %.3f)", loss)
	if cachePath != "" {
		if err := pm.Save(cachePath); err != nil {
			verbose("warning: could not cache backbone: %v", err)
		} else {
			verbose("cached backbone: %s", cachePath)
		}
	}
	return pm, nil
}

// backboneKey hashes everything that affects the pretrained backbone.
func backboneKey(sc Scale) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("backbone-v1|%+v|%d|%d|%d|%d|%g|%g",
		sc.Model, sc.PretrainClasses, sc.PretrainSessions, sc.PretrainFrames,
		sc.PretrainEpochs, sc.PretrainLR, sc.PretrainMomentum)))
	return "backbone-" + sc.Name + "-" + hex.EncodeToString(h[:8])
}

// cacheKey hashes everything that affects the latents.
func cacheKey(datasetName string, sc Scale) string {
	dcfg, _ := sc.DatasetConfig(datasetName)
	h := sha256.Sum256([]byte(fmt.Sprintf("v3|%s|%+v|%+v|%d|%d|%d|%d|%g|%g",
		datasetName, sc.Model, dcfg,
		sc.PretrainClasses, sc.PretrainSessions, sc.PretrainFrames,
		sc.PretrainEpochs, sc.PretrainLR, sc.PretrainMomentum)))
	return datasetName + "-" + sc.Name + "-" + hex.EncodeToString(h[:8])
}

// DefaultCacheDir returns a per-user cache location.
func DefaultCacheDir() string {
	return filepath.Join(os.TempDir(), "chameleon-cache")
}
