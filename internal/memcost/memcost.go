// Package memcost reproduces the paper's replay-memory accounting (the
// "Memory Overhead (MB)" column of Table I and the x-axis of Fig. 2).
//
// Methods that buffer the same *number* of samples differ widely in bytes
// because their per-sample payloads differ:
//
//   - ER buffers raw input images (uint8 RGB at the camera resolution);
//   - DER buffers raw images plus the model's logit vector;
//   - GSS buffers raw images plus a gradient-direction vector per sample —
//     the paper reports up to 10× ER's footprint;
//   - Latent Replay and Chameleon buffer the latent activation of the frozen
//     backbone's layer 21 (512×4×4 fp32 = 32 KiB at paper scale);
//   - EWC++ needs a Fisher diagonal and a parameter anchor over the
//     trainable weights; LwF needs a teacher snapshot;
//   - SLDA stores per-class means plus a shared covariance matrix.
//
// All byte counts derive from the mobilenet inventory of a configurable
// model, so the same code prices both the paper-scale backbone
// (mobilenet.PaperConfig) and the laptop-scale one the experiments run.
package memcost

import (
	"fmt"

	"chameleon/internal/mobilenet"
)

// Bytes per scalar for the payload datatypes.
const (
	bytesRawPixel = 1 // uint8 camera frames
	bytesFloat    = 4 // fp32 activations/weights
)

// Dtype identifies the element type a latent store persists. The accounting
// used to charge every latent store 4 bytes/element unconditionally, which
// overstates the int8 replay store (-replay-int8) 4×: its latents are int8
// elements plus one fp32 per-tensor scale.
type Dtype string

// Latent store datatypes.
const (
	// DtypeFP32 is the default fp32 latent store (4 bytes/element). The
	// zero value "" means fp32 so existing cost models are unchanged.
	DtypeFP32 Dtype = "fp32"
	// DtypeInt8 is the quantised latent store: 1 byte/element plus one
	// fp32 per-tensor quantisation scale.
	DtypeInt8 Dtype = "int8"
)

// ScalarBytes returns d's per-element stored size.
func (d Dtype) ScalarBytes() (int64, error) {
	switch d {
	case "", DtypeFP32:
		return bytesFloat, nil
	case DtypeInt8:
		return 1, nil
	}
	return 0, fmt.Errorf("memcost: unknown dtype %q (want %s or %s)", d, DtypeFP32, DtypeInt8)
}

// tensorOverheadBytes is the fixed per-tensor cost on top of the elements
// (int8 tensors carry one fp32 quantisation scale).
func (d Dtype) tensorOverheadBytes() int64 {
	if d == DtypeInt8 {
		return bytesFloat
	}
	return 0
}

// MB converts bytes to the paper's MB (10⁶ bytes would differ by <5%; the
// paper's round numbers match MiB best for latents, so MiB is used).
func MB(bytes int64) float64 { return float64(bytes) / (1024 * 1024) }

// Model wraps the inventory-derived per-sample payload sizes.
type Model struct {
	cfg mobilenet.Config
	sum mobilenet.InventorySummary
	// RawImageSide is the stored raw-frame resolution for image-buffering
	// methods. The paper's CORe50 frames are 128×128 RGB (48 KiB each)
	// regardless of the network input resolution.
	RawImageSide int
	// GradSketchScalars sizes GSS's stored gradient-direction vector. The
	// paper reports GSS at ~10× ER's per-sample footprint (48.8 MB per 100
	// samples) without specifying the gradient format; the default of
	// 115,200 fp32 scalars (≈0.44 MB/sample) reproduces that figure.
	GradSketchScalars int64
	// LatentDtype is the element type of latent stores (Latent Replay and
	// Chameleon buffers). The zero value prices fp32; set DtypeInt8 when
	// the latents come through the quantised backbone path.
	LatentDtype Dtype
}

// New derives a cost model from a backbone config. rawSide of 0 defaults to
// the paper's 128×128 stored frames.
func New(cfg mobilenet.Config, rawSide int) *Model {
	if rawSide <= 0 {
		rawSide = 128
	}
	inv := mobilenet.Inventory(cfg)
	return &Model{cfg: cfg, sum: mobilenet.Summarize(cfg, inv), RawImageSide: rawSide, GradSketchScalars: 115200}
}

// PaperModel returns the accounting model at paper scale (MobileNetV1-1.0,
// latent layer 21 → 32 KiB latents, 128×128 stored frames, 50 classes).
func PaperModel() *Model { return New(mobilenet.PaperConfig(50), 128) }

// RawImageBytes is the stored size of one raw frame.
func (m *Model) RawImageBytes() int64 {
	return int64(m.RawImageSide) * int64(m.RawImageSide) * 3 * bytesRawPixel
}

// LatentBytes is the stored size of one latent activation under LatentDtype:
// 4 bytes/element fp32, or 1 byte/element int8 plus one fp32 per-tensor
// scale. An unknown dtype prices as fp32 here; Overhead rejects it first.
func (m *Model) LatentBytes() int64 {
	per, err := m.LatentDtype.ScalarBytes()
	if err != nil {
		per = bytesFloat
	}
	return m.sum.LatentScalars*per + m.LatentDtype.tensorOverheadBytes()
}

// LogitBytes is the stored size of one logit vector.
func (m *Model) LogitBytes() int64 { return int64(m.sum.NumClasses) * bytesFloat }

// GradVectorBytes is the stored size of GSS's per-sample gradient-direction
// vector (see GradSketchScalars).
func (m *Model) GradVectorBytes() int64 { return m.GradSketchScalars * bytesFloat }

// TrainableParamBytes is the size of the trainable parameter vector.
func (m *Model) TrainableParamBytes() int64 { return m.sum.TrainWeights * bytesFloat }

// Method identifies a continual-learning method for accounting.
type Method string

// Accounting method identifiers.
const (
	Finetune  Method = "finetune"
	Joint     Method = "joint"
	EWCPP     Method = "ewcpp"
	LwF       Method = "lwf"
	SLDA      Method = "slda"
	GSS       Method = "gss"
	ER        Method = "er"
	DER       Method = "der"
	Latent    Method = "latent"
	Chameleon Method = "chameleon"
)

// Overhead returns the method's replay/auxiliary memory in bytes for the
// given buffer size in samples (ignored by bufferless methods). For
// Chameleon, bufSamples is the long-term size and stSamples the short-term
// size; other methods ignore stSamples.
func (m *Model) Overhead(method Method, bufSamples, stSamples int) (int64, error) {
	if _, err := m.LatentDtype.ScalarBytes(); err != nil {
		return 0, err
	}
	n := int64(bufSamples)
	switch method {
	case Finetune, Joint:
		return 0, nil
	case EWCPP:
		// Fisher diagonal + anchor parameters over the trainable weights.
		return 2 * m.TrainableParamBytes(), nil
	case LwF:
		// Teacher parameter snapshot + teacher activation workspace.
		return m.TrainableParamBytes(), nil
	case SLDA:
		// Per-class means + shared covariance over the pooled feature dim.
		d := int64(m.sum.LatentScalars)
		if m.cfg.LatentLayer > 0 {
			// SLDA pools the latent over space: feature dim = channels.
			d = int64(latentChannels(m.cfg))
		}
		return (int64(m.sum.NumClasses)*d + d*d) * bytesFloat, nil
	case GSS:
		return n * (m.RawImageBytes() + m.GradVectorBytes()), nil
	case ER:
		return n * m.RawImageBytes(), nil
	case DER:
		return n * (m.RawImageBytes() + m.LogitBytes()), nil
	case Latent:
		return n * m.LatentBytes(), nil
	case Chameleon:
		return (n + int64(stSamples)) * m.LatentBytes(), nil
	default:
		return 0, fmt.Errorf("memcost: unknown method %q", method)
	}
}

// OnChipOffChip splits a method's overhead into on-chip and off-chip bytes
// under the paper's deployment: only Chameleon deliberately places its
// short-term store on-chip; every other method's buffer lives off-chip
// (single unified buffers exceed on-chip SRAM at useful sizes).
func (m *Model) OnChipOffChip(method Method, bufSamples, stSamples int) (onChip, offChip int64, err error) {
	total, err := m.Overhead(method, bufSamples, stSamples)
	if err != nil {
		return 0, 0, err
	}
	if method == Chameleon {
		on := int64(stSamples) * m.LatentBytes()
		return on, total - on, nil
	}
	return 0, total, nil
}

// latentChannels returns the channel count at the latent layer.
func latentChannels(cfg mobilenet.Config) int {
	inv := mobilenet.Inventory(cfg)
	for _, l := range inv {
		if l.Index == cfg.LatentLayer {
			return l.OutC
		}
	}
	return 0
}
