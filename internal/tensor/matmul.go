package tensor

import "runtime"

// Cache-blocked matrix-multiply kernels shared by the autograd ops and the
// inference arena. The i-k-j loop order streams the B rows sequentially;
// blocking over (i, k) keeps the active B panel resident in cache while a
// block of A rows consumes it. Large products additionally fan out across
// GOMAXPROCS goroutines.

const (
	// mmBlock is the block edge (rows of A × rows of B per panel). 64×64
	// float64 panels are 32 KiB — comfortably L1/L2 resident.
	mmBlock = 64
	// mmParallelFlops is the m*k*n threshold above which matMulInto splits
	// row blocks across goroutines. Below it the spawn overhead dominates.
	mmParallelFlops = 1 << 18
)

// matMulInto computes dst = a·b for row-major a (m×k), b (k×n). dst must be
// zeroed (freshly allocated or cleared) and must not alias a or b.
func matMulInto(dst, a, b []float64, m, k, n int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if workers := mmWorkers(m, k, n); workers > 1 {
		matMulParallel(dst, a, b, m, k, n, workers)
		return
	}
	matMulRange(dst, a, b, 0, m, k, n)
}

// mmWorkers is how many goroutines a GEMM of m×k·k×n fans its rows over:
// 1 below mmParallelFlops or two row blocks, else GOMAXPROCS capped at one
// worker per mmBlock rows.
func mmWorkers(m, k, n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || m < 2*mmBlock || m*k*n < mmParallelFlops {
		return 1
	}
	return min(workers, (m+mmBlock-1)/mmBlock)
}

// matMulParallel hands worker w the w-th of `workers` equal row chunks.
func matMulParallel(dst, a, b []float64, m, k, n, workers int) {
	chunk := (m + workers - 1) / workers
	fanOut(workers, func(w int) {
		matMulRange(dst, a, b, min(w*chunk, m), min((w+1)*chunk, m), k, n)
	})
}

// matMulRange multiplies A rows [i0,i1) into dst with (i, k) blocking.
func matMulRange(dst, a, b []float64, i0, i1, k, n int) {
	for ib := i0; ib < i1; ib += mmBlock {
		ie := min(ib+mmBlock, i1)
		for kb := 0; kb < k; kb += mmBlock {
			ke := min(kb+mmBlock, k)
			i := ib
			// Two output rows per pass share each B-row load (register
			// blocking): half the B traffic of a row-at-a-time loop.
			for ; i+2 <= ie; i += 2 {
				ar0 := a[i*k : (i+1)*k]
				ar1 := a[(i+1)*k : (i+2)*k]
				or0 := dst[i*n : (i+1)*n]
				or1 := dst[(i+1)*n : (i+2)*n]
				for kk := kb; kk < ke; kk++ {
					av0, av1 := ar0[kk], ar1[kk]
					if av0 == 0 && av1 == 0 {
						continue
					}
					br := b[kk*n : (kk+1)*n : (kk+1)*n]
					for j, bv := range br {
						or0[j] += av0 * bv
						or1[j] += av1 * bv
					}
				}
			}
			for ; i < ie; i++ {
				ar := a[i*k : (i+1)*k]
				or := dst[i*n : (i+1)*n]
				for kk := kb; kk < ke; kk++ {
					av := ar[kk]
					if av == 0 {
						continue
					}
					br := b[kk*n : (kk+1)*n : (kk+1)*n]
					for j, bv := range br {
						or[j] += av * bv
					}
				}
			}
		}
	}
}

// matMulQ8Into computes the quantized linear dst = dequant(x·wᵀ) + bias
// over packed lane representations (see quant.go for the encoding): xp/xs/xsum
// are the m packed activation rows with per-row scales and unsigned lane sums,
// wp/ws/wsum the n packed weight channels. bias must hold n values (callers
// pass a zeroed row for bias-free products — the epilogue folds it in
// unconditionally to keep branches out of the hot loop). dst need not be
// zeroed — every cell is written exactly once. Large products fan out rows
// across GOMAXPROCS goroutines like the float kernel.
func matMulQ8Into(dst []float64, xp []uint64, xs []float64, xsum []int64, wp []uint64, ws []float64, wsum []int64, bias []float64, m, k, kp, n int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if workers := mmWorkers(m, k, n); workers > 1 {
		matMulQ8Parallel(dst, xp, xs, xsum, wp, ws, wsum, bias, m, k, kp, n, workers)
		return
	}
	matMulQ8Range(dst, xp, xs, xsum, wp, ws, wsum, bias, 0, m, k, kp, n)
}

// matMulQ8Parallel hands worker w the w-th of `workers` equal row chunks.
func matMulQ8Parallel(dst []float64, xp []uint64, xs []float64, xsum []int64, wp []uint64, ws []float64, wsum []int64, bias []float64, m, k, kp, n, workers int) {
	chunk := (m + workers - 1) / workers
	fanOut(workers, func(w int) {
		matMulQ8Range(dst, xp, xs, xsum, wp, ws, wsum, bias, min(w*chunk, m), min((w+1)*chunk, m), k, kp, n)
	})
}

// matMulQ8Range computes activation rows [i0,i1) of the quantized linear.
// Four output channels advance together so each packed activation word is
// loaded once per four dot products, and the inner loop's 64-bit multiply
// computes four multiply-accumulates at a time — the packed-lane trick that
// makes this kernel beat the float64 GEMM on one core.
func matMulQ8Range(dst []float64, xp []uint64, xs []float64, xsum []int64, wp []uint64, ws []float64, wsum []int64, bias []float64, i0, i1, k, kp, n int) {
	kOffSq := int64(k) * (qOff * qOff)
	for i := i0; i < i1; i++ {
		xr := xp[i*kp : (i+1)*kp : (i+1)*kp]
		dr := dst[i*n : (i+1)*n : (i+1)*n]
		sa := xs[i]
		// Per-row half of the offset correction (see quant.go):
		// Σqa·qw = P − qOff·Σau − qOff·Σwu + qOff²·k.
		rowCorr := kOffSq - qOff*xsum[i]
		j := 0
		for ; j+4 <= n; j += 4 {
			w0 := wp[j*kp : (j+1)*kp : (j+1)*kp]
			w1 := wp[(j+1)*kp : (j+2)*kp : (j+2)*kp]
			w2 := wp[(j+2)*kp : (j+3)*kp : (j+3)*kp]
			w3 := wp[(j+3)*kp : (j+4)*kp : (j+4)*kp]
			var p0, p1, p2, p3 uint64
			t := 0
			for ; t+2 <= len(xr); t += 2 {
				a0, a1 := xr[t], xr[t+1]
				p0 += (a0*w0[t])>>48 + (a1*w0[t+1])>>48
				p1 += (a0*w1[t])>>48 + (a1*w1[t+1])>>48
				p2 += (a0*w2[t])>>48 + (a1*w2[t+1])>>48
				p3 += (a0*w3[t])>>48 + (a1*w3[t+1])>>48
			}
			if t < len(xr) {
				a := xr[t]
				p0 += (a * w0[t]) >> 48
				p1 += (a * w1[t]) >> 48
				p2 += (a * w2[t]) >> 48
				p3 += (a * w3[t]) >> 48
			}
			dr[j] = bias[j] + sa*ws[j]*float64(int64(p0)-qOff*wsum[j]+rowCorr)
			dr[j+1] = bias[j+1] + sa*ws[j+1]*float64(int64(p1)-qOff*wsum[j+1]+rowCorr)
			dr[j+2] = bias[j+2] + sa*ws[j+2]*float64(int64(p2)-qOff*wsum[j+2]+rowCorr)
			dr[j+3] = bias[j+3] + sa*ws[j+3]*float64(int64(p3)-qOff*wsum[j+3]+rowCorr)
		}
		for ; j < n; j++ {
			wr := wp[j*kp : (j+1)*kp : (j+1)*kp]
			var p0 uint64
			for t := 0; t < len(xr); t++ {
				p0 += (xr[t] * wr[t]) >> 48
			}
			dr[j] = bias[j] + sa*ws[j]*float64(int64(p0)-qOff*wsum[j]+rowCorr)
		}
	}
}

// matMulTInto computes dst = a·bᵀ for a (m×k), b (n×k). dst need not be
// zeroed: every cell is written exactly once.
func matMulTInto(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k : (j+1)*k]
			var s0, s1, s2, s3 float64
			kk := 0
			for ; kk+4 <= len(br); kk += 4 {
				s0 += ar[kk] * br[kk]
				s1 += ar[kk+1] * br[kk+1]
				s2 += ar[kk+2] * br[kk+2]
				s3 += ar[kk+3] * br[kk+3]
			}
			for ; kk < len(br); kk++ {
				s0 += ar[kk] * br[kk]
			}
			dr[j] = (s0 + s1) + (s2 + s3)
		}
	}
}

// matMulTAccum computes dst += a·bᵀ for a (m×q), b (n×q), dst (m×n) — the
// dX = dOut·Wᵀ shape of linear/matmul backwards.
func matMulTAccum(dst, a, b []float64, m, q, n int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		ar0 := a[i*q : (i+1)*q]
		ar1 := a[(i+1)*q : (i+2)*q]
		dr0 := dst[i*n : (i+1)*n]
		dr1 := dst[(i+1)*n : (i+2)*n]
		for j := 0; j < n; j++ {
			br := b[j*q : (j+1)*q : (j+1)*q]
			var t0, t1, u0, u1 float64
			kk := 0
			for ; kk+2 <= len(br); kk += 2 {
				t0 += ar0[kk] * br[kk]
				t1 += ar0[kk+1] * br[kk+1]
				u0 += ar1[kk] * br[kk]
				u1 += ar1[kk+1] * br[kk+1]
			}
			for ; kk < len(br); kk++ {
				t0 += ar0[kk] * br[kk]
				u0 += ar1[kk] * br[kk]
			}
			dr0[j] += t0 + t1
			dr1[j] += u0 + u1
		}
	}
	for ; i < m; i++ {
		ar := a[i*q : (i+1)*q]
		dr := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*q : (j+1)*q : (j+1)*q]
			var s0, s1 float64
			kk := 0
			for ; kk+2 <= len(br); kk += 2 {
				s0 += ar[kk] * br[kk]
				s1 += ar[kk+1] * br[kk+1]
			}
			for ; kk < len(br); kk++ {
				s0 += ar[kk] * br[kk]
			}
			dr[j] += s0 + s1
		}
	}
}

// matMulATAccum computes dst += aᵀ·g for a (m×k), g (m×n), dst (k×n) — the
// dW = Xᵀ·dOut shape. Zero activations (common after ReLU) are skipped.
func matMulATAccum(dst, a, g []float64, m, k, n int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		ar0 := a[i*k : (i+1)*k]
		ar1 := a[(i+1)*k : (i+2)*k]
		gr0 := g[i*n : (i+1)*n]
		gr1 := g[(i+1)*n : (i+2)*n]
		for kk := 0; kk < k; kk++ {
			av0, av1 := ar0[kk], ar1[kk]
			if av0 == 0 && av1 == 0 {
				continue
			}
			dr := dst[kk*n : (kk+1)*n : (kk+1)*n]
			for j, g0 := range gr0 {
				dr[j] += av0*g0 + av1*gr1[j]
			}
		}
	}
	for ; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		gr := g[i*n : (i+1)*n]
		for kk, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst[kk*n : (kk+1)*n : (kk+1)*n]
			for j, gv := range gr {
				dr[j] += av * gv
			}
		}
	}
}
