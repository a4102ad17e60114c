// Order-preserving dense kernels behind Conv2d and Linear.
//
// Every kernel here vectorizes across independent outputs only. For each
// output element it performs exactly the sequence of float additions of the
// direct loops it replaced, so results are bit-identical to them (the build
// pins -ffp-contract=off, so no multiply-add is fused either). Two kinds of
// extra term are added that the direct loops skip: a padding tap (an im2col
// zero) and a product with a zero gradient. Both are exact zeros, and every
// accumulator starts at +0.0f, a bias or a gradient buffer that never holds
// -0.0f, so adding them changes no bit.
//
// The kernels keep no state; callers pass per-call buffers sized by one
// image, so concurrent eval forwards on one model share nothing writable.
#pragma once

#include <cstdint>

namespace fedsz::nn::kernels {

/// The panel kernel: C[m, j] += sum_k A[m, k] * B[k, j] for m < M, j < N,
/// with k strictly ascending for every output element. Row-major operands
/// with leading dimensions lda / ldb / ldc.
///
/// taps == 0: each product is added straight into C.
/// taps > 0:  K is a multiple of `taps`; each run of `taps` consecutive
///            products is summed from +0.0f first and that partial sum is
///            added into C (Conv2d forward's per-input-channel sum of the
///            kernel window).
void panel(std::int64_t M, std::int64_t N, std::int64_t K, std::int64_t taps,
           const float* A, std::int64_t lda, const float* B, std::int64_t ldb,
           float* C, std::int64_t ldc);

/// Kernel-window sums over a zero-padded frame `frame_w` floats wide, for
/// a rows x cols output grid: out[oh * cols + ow] += (sum of
/// w[kh * k + kw] * frame[(oh * s + kh) * frame_w + ow * s + kw] over the
/// taps in (kh, kw) order, from +0.0f). Four neighbouring outputs share
/// the loads of one pass over the taps.
void window_sums(const float* frame, std::int64_t frame_w, const float* w,
                 int k, int s, std::int64_t rows, std::int64_t cols,
                 float* out);

/// The weight grad of window_sums: gw[kh * k + kw] += g[oh * cols + ow] *
/// frame[(oh * s + kh) * frame_w + ow * s + kw] over (oh, ow) ascending.
/// The taps' add chains run side by side.
void window_grads(const float* frame, std::int64_t frame_w, const float* g,
                  int k, int s, std::int64_t rows, std::int64_t cols,
                  float* gw);

/// dst[c * rows + r] = src[r * ld + c] for r < rows, c < cols.
void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               std::int64_t ld, float* dst);

}  // namespace fedsz::nn::kernels
