package tensor

import (
	"math"
	"math/rand"
)

// RandNormal fills a new tensor of the given shape with N(0, std²) samples
// drawn from rng.
func RandNormal(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	FillNormal(rng, std, len(t.data), t.data)
	return t
}

// RandUniform fills a new tensor of the given shape with U(lo, hi) samples.
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	FillUniform(rng, lo, hi, len(t.data), t.data)
	return t
}

// FillNormal draws n N(0, std²) samples from rng into dst[:n], in order. A
// nil dst draws and discards them, advancing rng exactly as a fill would.
func FillNormal(rng *rand.Rand, std float64, n int, dst []float32) {
	for i := 0; i < n; i++ {
		v := float32(rng.NormFloat64() * std)
		if dst != nil {
			dst[i] = v
		}
	}
}

// FillUniform draws n U(lo, hi) samples from rng into dst[:n], in order. A
// nil dst draws and discards them.
func FillUniform(rng *rand.Rand, lo, hi float64, n int, dst []float32) {
	for i := 0; i < n; i++ {
		v := float32(lo + rng.Float64()*(hi-lo))
		if dst != nil {
			dst[i] = v
		}
	}
}

// HeStd is the He/Kaiming normal standard deviation, sqrt(2/fanIn), with a
// non-positive fanIn taken as 1.
func HeStd(fanIn int) float64 {
	if fanIn <= 0 {
		fanIn = 1
	}
	return math.Sqrt(2 / float64(fanIn))
}

// HeNormal initialises a tensor with the He/Kaiming normal scheme,
// std = sqrt(2/fanIn), the standard initialisation for ReLU networks.
func HeNormal(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	return RandNormal(rng, HeStd(fanIn), shape...)
}

// XavierUniform initialises a tensor with the Glorot uniform scheme,
// limit = sqrt(6/(fanIn+fanOut)).
func XavierUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	lim := math.Sqrt(6 / float64(fanIn+fanOut))
	return RandUniform(rng, -lim, lim, shape...)
}
