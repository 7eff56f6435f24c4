// Package quant is the symmetric int8 codec behind the quantized replay
// stores (-replay-int8) and the latent_int8 wire form: one fp32 scale per
// tensor, q = round(v/s) with s = maxAbs/127, and no zero point, so zero
// round-trips exactly.
package quant

// MaxAbs32 returns the largest absolute value in data (0 for empty input).
func MaxAbs32(data []float32) float32 {
	var m float32
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// QuantizeInt8 quantises data symmetrically into q (which must be the same
// length) and returns the scale s such that float32(q[i])*s ≈ data[i].
// q[i] = round(data[i]/s) with s = maxAbs/127, so the full int8 range is
// used and zero maps to zero exactly (no zero-point). An all-zero input
// returns scale 1.
func QuantizeInt8(q []int8, data []float32) float32 {
	m := MaxAbs32(data)
	if m == 0 {
		for i := range q {
			q[i] = 0
		}
		return 1
	}
	s := m / 127
	inv := 127 / m
	for i, v := range data {
		q[i] = roundInt8(v * inv)
	}
	return s
}

// roundInt8 rounds to nearest (half away from zero) and clamps to int8.
func roundInt8(v float32) int8 {
	if v >= 0 {
		v += 0.5
		if v > 127 {
			return 127
		}
		return int8(v)
	}
	v -= 0.5
	if v < -128 {
		return -128
	}
	return int8(v)
}

// DequantizeInt8 writes float32(q[i])*scale into dst.
func DequantizeInt8(dst []float32, q []int8, scale float32) {
	for i, v := range q {
		dst[i] = float32(v) * scale
	}
}
