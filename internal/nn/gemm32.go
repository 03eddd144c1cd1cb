package nn

import "math"

// Float32 inner kernels of the batched inference path. Each kernel has a
// pure-Go implementation and, on amd64 with AVX2+FMA, a vectorized
// assembly twin selected once at package init. Both evaluate every
// element sum in the same order — column i accumulates contributions in
// ascending j, one multiply-add per step — so results never depend on
// batch size, batch composition, or cache-block boundaries. The two
// implementations may differ by rounding (the assembly fuses each
// multiply-add into a single-rounding FMA), which the accuracy tests
// bound against the float64 Predict; within one process the selection is
// constant, so repeated runs stay bit-identical.

// axpy432 computes z[i] += a[0]*w0[i] + a[1]*w1[i] + a[2]*w2[i] +
// a[3]*w3[i] — the four-row fused update at the heart of the batched
// GEMM. Fusing four weight rows amortises the z load/store over eight
// multiply-adds, which is what lifts the kernel off the load-port limit
// that caps a one- or two-row update.
func axpy432(z, w0, w1, w2, w3 []float32, a *[4]float32) {
	if useAsmGemm {
		if n := len(z); n > 0 {
			axpy4AVX2(&z[0], &w0[0], &w1[0], &w2[0], &w3[0], &a[0], n)
		}
		return
	}
	axpy4Generic(z, w0, w1, w2, w3, a)
}

// axpy132 computes z[i] += a*w[i], the remainder kernel when the input
// dimension is not a multiple of four.
func axpy132(z, w []float32, a float32) {
	if useAsmGemm {
		if n := len(z); n > 0 {
			axpy1AVX2(&z[0], &w[0], a, n)
		}
		return
	}
	axpy1Generic(z, w, a)
}

func axpy4Generic(z, w0, w1, w2, w3 []float32, a *[4]float32) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	w0 = w0[:len(z)]
	w1 = w1[:len(z)]
	w2 = w2[:len(z)]
	w3 = w3[:len(z)]
	for i := range z {
		acc := z[i]
		acc += a0 * w0[i]
		acc += a1 * w1[i]
		acc += a2 * w2[i]
		acc += a3 * w3[i]
		z[i] = acc
	}
}

func axpy1Generic(z, w []float32, a float32) {
	w = w[:len(z)]
	for i := range z {
		z[i] += a * w[i]
	}
}

// The gate nonlinearities are the second wall after the GEMM: a
// 128/64-unit predict evaluates tanh ~19k times, and at math.Tanh speed
// that alone exceeds the batched time budget. vtanh32 instead computes
// tanh through a float32 exp2 polynomial: tanh(s*x) = sign * (1 -
// 2/(exp2(|s*x|*2*log2(e)) + 1)), with exp2 split into an exact
// exponent shift plus a degree-5 minimax polynomial on [0, 1).
// Maximum absolute error is ~1e-7 — far inside the float32 path's 1e-5
// contract — and the logistic gates reuse it as sigmoid(x) = 0.5 +
// 0.5*tanh(x/2) by folding the 1/2 into the scale.

const (
	// exp2 minimax coefficients (degree 5 on [0, 1)).
	exp2c0 float32 = 1.0
	exp2c1 float32 = 0.693153073200168
	exp2c2 float32 = 0.240153617044375
	exp2c3 float32 = 0.0558263180532956
	exp2c4 float32 = 0.00898934009049466
	exp2c5 float32 = 0.00187757667519147

	// tanhYClamp caps y = |s*x|*2*log2(e) at the point where tanh has
	// saturated to 1.0 in float32 (x = 10), keeping exp2 finite.
	tanhYClamp float32 = 28.85390081777927

	// twoLog2E is 2*log2(e); tanh(x) needs exp(2x) = exp2(x*twoLog2E).
	twoLog2E = 2 * math.Log2E
)

// vtanh32 writes dst[i] = tanh(scale*src[i]). dst may alias src.
func vtanh32(dst, src []float32, scale float32) {
	k2 := float32(float64(scale) * twoLog2E)
	n := len(dst)
	src = src[:n]
	head := 0
	if useAsmGemm {
		if head = n &^ 7; head > 0 {
			vtanhAVX2(&dst[0], &src[0], k2, head)
		}
	}
	for i := head; i < n; i++ {
		dst[i] = tanhPoly32(src[i], k2)
	}
}

// tanhPoly32 is the scalar form of the vtanh32 algorithm; the assembly
// kernel follows the identical instruction recipe eight lanes at a time.
func tanhPoly32(x, k2 float32) float32 {
	ax := x
	neg := false
	if ax < 0 {
		ax, neg = -ax, true
	}
	y := ax * k2
	if y > tanhYClamp {
		y = tanhYClamp
	}
	k := float32(math.Floor(float64(y)))
	r := y - k // in [0, 1), the polynomial's fit range
	p := exp2c5
	p = p*r + exp2c4
	p = p*r + exp2c3
	p = p*r + exp2c2
	p = p*r + exp2c1
	p = p*r + exp2c0
	// Scale by 2^k through the exponent bits: k is an exact small
	// non-negative integer and p stays in [1, 2), so the biased
	// exponent never leaves the normal range.
	e := math.Float32frombits(math.Float32bits(p) + uint32(int32(k))<<23)
	t := 1 - 2/(e+1)
	if neg {
		t = -t
	}
	return t
}
