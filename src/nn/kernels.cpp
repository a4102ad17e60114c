#include "nn/kernels.hpp"

#include <algorithm>
#include <cstring>

namespace fedsz::nn::kernels {

namespace {

constexpr std::int64_t kMR = 4;    // rows of a C tile held in registers
constexpr std::int64_t kNR = 16;   // columns of a C tile held in registers
constexpr std::int64_t kKC = 256;  // depth of one pass over a B panel
constexpr std::int64_t kNC = 512;  // width of one B panel

// Four independent float lanes (one SSE / NEON register). Lane-wise + and *
// round each lane exactly as the scalar operations would; the explicit type
// keeps the vectorization across columns, where the auto-vectorizer would
// pick the rows and shuffle.
using f4 = float __attribute__((vector_size(16)));

f4 load(const float* p) {
  f4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void store(float* p, f4 v) { std::memcpy(p, &v, sizeof(v)); }

// One MR x NR tile of C over k in [0, K), each product added straight in.
// The tile lives in registers across the whole depth; a spill or reload is
// exact, so only the order of the additions matters.
template <int MR, int NR>
void tile(std::int64_t K, const float* A, std::int64_t lda, const float* B,
          std::int64_t ldb, float* C, std::int64_t ldc) {
  constexpr int V = NR / 4;
  f4 c[MR][V];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < V; ++v) c[r][v] = load(C + r * ldc + 4 * v);
  for (std::int64_t k = 0; k < K; ++k) {
    f4 b[V];
    for (int v = 0; v < V; ++v) b[v] = load(B + k * ldb + 4 * v);
    for (int r = 0; r < MR; ++r) {
      const float a = A[r * lda + k];
      const f4 av = {a, a, a, a};
      for (int v = 0; v < V; ++v) c[r][v] += av * b[v];
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < V; ++v) store(C + r * ldc + 4 * v, c[r][v]);
}

// The same tile, but each run of `taps` products is summed from +0.0f
// before it is added into C.
template <int MR, int NR>
void tapped_tile(std::int64_t K, std::int64_t taps, const float* A,
                 std::int64_t lda, const float* B, std::int64_t ldb, float* C,
                 std::int64_t ldc) {
  constexpr int V = NR / 4;
  f4 c[MR][V];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < V; ++v) c[r][v] = load(C + r * ldc + 4 * v);
  for (std::int64_t k0 = 0; k0 < K; k0 += taps) {
    f4 t[MR][V] = {};
    for (std::int64_t k = k0; k < k0 + taps; ++k) {
      f4 b[V];
      for (int v = 0; v < V; ++v) b[v] = load(B + k * ldb + 4 * v);
      for (int r = 0; r < MR; ++r) {
        const float a = A[r * lda + k];
        const f4 av = {a, a, a, a};
        for (int v = 0; v < V; ++v) t[r][v] += av * b[v];
      }
    }
    for (int r = 0; r < MR; ++r)
      for (int v = 0; v < V; ++v) c[r][v] += t[r][v];
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < V; ++v) store(C + r * ldc + 4 * v, c[r][v]);
}

// Rows [0, rows) of a tile NR wide, in MR-row tiles and single rows. A
// tapped tile keeps two accumulators per output, so it takes half the rows.
template <int NR>
void tile_rows(std::int64_t rows, std::int64_t K, std::int64_t taps,
               const float* A, std::int64_t lda, const float* B,
               std::int64_t ldb, float* C, std::int64_t ldc) {
  std::int64_t r = 0;
  if (taps == 0) {
    for (; r + kMR <= rows; r += kMR)
      tile<kMR, NR>(K, A + r * lda, lda, B, ldb, C + r * ldc, ldc);
    for (; r < rows; ++r)
      tile<1, NR>(K, A + r * lda, lda, B, ldb, C + r * ldc, ldc);
  } else {
    for (; r + kMR / 2 <= rows; r += kMR / 2)
      tapped_tile<kMR / 2, NR>(K, taps, A + r * lda, lda, B, ldb, C + r * ldc,
                               ldc);
    for (; r < rows; ++r)
      tapped_tile<1, NR>(K, taps, A + r * lda, lda, B, ldb, C + r * ldc, ldc);
  }
}

// The ragged right edge of C (under kNR / 2 columns), one element at a time.
void edge(std::int64_t rows, std::int64_t cols, std::int64_t K,
          std::int64_t taps, const float* A, std::int64_t lda, const float* B,
          std::int64_t ldb, float* C, std::int64_t ldc) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) {
      float c = C[r * ldc + j];
      if (taps == 0) {
        for (std::int64_t k = 0; k < K; ++k)
          c += A[r * lda + k] * B[k * ldb + j];
      } else {
        for (std::int64_t k0 = 0; k0 < K; k0 += taps) {
          float t = 0.0f;
          for (std::int64_t k = k0; k < k0 + taps; ++k)
            t += A[r * lda + k] * B[k * ldb + j];
          c += t;
        }
      }
      C[r * ldc + j] = c;
    }
  }
}

}  // namespace

void panel(std::int64_t M, std::int64_t N, std::int64_t K, std::int64_t taps,
           const float* A, std::int64_t lda, const float* B, std::int64_t ldb,
           float* C, std::int64_t ldc) {
  if (M <= 0 || N <= 0 || K <= 0) return;
  // Depth blocks hold whole tap runs, and run in ascending k: every output
  // still sees its products in order.
  const std::int64_t kc = taps > 0 ? std::max(taps, kKC / taps * taps) : kKC;
  for (std::int64_t j0 = 0; j0 < N; j0 += kNC) {
    const std::int64_t nc = std::min(kNC, N - j0);
    for (std::int64_t k0 = 0; k0 < K; k0 += kc) {
      const std::int64_t kb = std::min(kc, K - k0);
      const float* Bk = B + k0 * ldb + j0;
      for (std::int64_t m0 = 0; m0 < M; m0 += kMR) {
        const std::int64_t mr = std::min(kMR, M - m0);
        const float* Am = A + m0 * lda + k0;
        float* Cm = C + m0 * ldc + j0;
        std::int64_t j = 0;
        for (; j + kNR <= nc; j += kNR)
          tile_rows<kNR>(mr, kb, taps, Am, lda, Bk + j, ldb, Cm + j, ldc);
        if (j + kNR / 2 <= nc) {
          tile_rows<kNR / 2>(mr, kb, taps, Am, lda, Bk + j, ldb, Cm + j, ldc);
          j += kNR / 2;
        }
        if (j < nc)
          edge(mr, nc - j, kb, taps, Am, lda, Bk + j, ldb, Cm + j, ldc);
      }
    }
  }
}

namespace {

// V * 4 neighbouring outputs of one window_sums row: V independent add
// chains, so one tap's loads and products overlap the next.
template <int V>
void window_block(const float* base, std::int64_t frame_w, const float* w,
                  int k, int s, float* o) {
  f4 acc[V] = {};
  for (int kh = 0; kh < k; ++kh) {
    const float* row = base + kh * frame_w;
    for (int kw = 0; kw < k; ++kw) {
      const float wt = w[kh * k + kw];
      const f4 wv = {wt, wt, wt, wt};
      for (int v = 0; v < V; ++v) {
        const float* p = row + 4 * v * s + kw;
        const f4 xv =
            s == 1 ? load(p) : f4{p[0], p[s], p[2 * s], p[3 * s]};
        acc[v] += wv * xv;
      }
    }
  }
  for (int v = 0; v < V; ++v) store(o + 4 * v, load(o + 4 * v) + acc[v]);
}

}  // namespace

void window_sums(const float* frame, std::int64_t frame_w, const float* w,
                 int k, int s, std::int64_t rows, std::int64_t cols,
                 float* out) {
  for (std::int64_t oh = 0; oh < rows; ++oh) {
    const float* base = frame + oh * s * frame_w;
    float* o = out + oh * cols;
    std::int64_t ow = 0;
    for (; ow + 16 <= cols; ow += 16)
      window_block<4>(base + ow * s, frame_w, w, k, s, o + ow);
    for (; ow + 4 <= cols; ow += 4)
      window_block<1>(base + ow * s, frame_w, w, k, s, o + ow);
    for (; ow < cols; ++ow) {
      float acc = 0.0f;
      for (int kh = 0; kh < k; ++kh)
        for (int kw = 0; kw < k; ++kw)
          acc += w[kh * k + kw] * base[kh * frame_w + ow * s + kw];
      o[ow] += acc;
    }
  }
}

void window_grads(const float* frame, std::int64_t frame_w, const float* g,
                  int k, int s, std::int64_t rows, std::int64_t cols,
                  float* gw) {
  constexpr int kTaps = 16;  // add chains in flight at once
  const int kk = k * k;
  for (int t0 = 0; t0 < kk; t0 += kTaps) {
    const int count = std::min(kTaps, kk - t0);
    float acc[kTaps] = {};
    std::int64_t offset[kTaps] = {};
    for (int i = 0; i < count; ++i) {
      acc[i] = gw[t0 + i];
      offset[i] = (t0 + i) / k * frame_w + (t0 + i) % k;
    }
    for (std::int64_t oh = 0; oh < rows; ++oh) {
      const float* base = frame + oh * s * frame_w;
      const float* gr = g + oh * cols;
      for (std::int64_t ow = 0; ow < cols; ++ow) {
        const float go = gr[ow];
        const float* p = base + ow * s;
        for (int i = 0; i < count; ++i) acc[i] += go * p[offset[i]];
      }
    }
    for (int i = 0; i < count; ++i) gw[t0 + i] = acc[i];
  }
}

void transpose(const float* src, std::int64_t rows, std::int64_t cols,
               std::int64_t ld, float* dst) {
  constexpr std::int64_t kBlock = 16;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::int64_t r1 = std::min(rows, r0 + kBlock);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t r = r0; r < r1; ++r)
        for (std::int64_t c = c0; c < c1; ++c)
          dst[c * rows + r] = src[r * ld + c];
    }
  }
}

}  // namespace fedsz::nn::kernels
