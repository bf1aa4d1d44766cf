#ifndef SKYPEER_COMMON_DOMINANCE_BATCH_H_
#define SKYPEER_COMMON_DOMINANCE_BATCH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "skypeer/common/macros.h"

namespace skypeer {

/// \file
/// Batched dominance kernels over fixed-width blocks of u-projected
/// points. Every SKYPEER variant funnels through the window dominance
/// test of Algorithm 1 — quadratic in window size, run once per scanned
/// point — so this layer restructures it from one-point-at-a-time scalar
/// loops (`dominance.h`) into block kernels that test `kDomBlockWidth`
/// candidates per iteration.
///
/// The kernels perform the *same double comparisons* as the scalar code
/// and reduce block results in lane-index order, so every boolean outcome
/// — and therefore skylines, scan counts, thresholds and all simulated
/// metrics — is bit-identical across the scalar, auto-vectorized and
/// explicit-SIMD paths. Dispatch is runtime (AVX2 on x86-64, NEON on
/// AArch64, compiler-vectorizable blocked loops otherwise) and can be
/// pinned to the scalar path with the `SKYPEER_FORCE_SCALAR` environment
/// variable or `SetForceScalarKernels` for differential testing.

/// Number of points per block of a `BlockedProjection`. Eight doubles per
/// dimension = two AVX2 vectors or four NEON vectors.
inline constexpr size_t kDomBlockWidth = 8;

/// \brief Blocked structure-of-arrays storage for k-dimensional projected
/// points: block `b` holds points `[b*8, b*8+8)` as `k` contiguous runs of
/// 8 doubles, one per dimension (dim-major within the block).
///
/// Padding lanes of a partial final block — and lanes of points removed
/// with `Kill` — hold `+inf` on every dimension, which makes them inert
/// for "does any stored point dominate q" queries (`+inf` never
/// dominates a finite point, strictly or not) without any separate
/// liveness mask. The reverse kernel (`DominatedMask`) reports `+inf`
/// lanes as dominated; callers that `Kill` entries must filter the mask
/// through their own liveness bookkeeping (padding lanes past `size()`
/// are cleared by the kernel itself).
class BlockedProjection {
 public:
  explicit BlockedProjection(int k) : k_(k) { SKYPEER_CHECK(k >= 1); }

  int k() const { return k_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_blocks() const {
    return (size_ + kDomBlockWidth - 1) / kDomBlockWidth;
  }

  void Reserve(size_t n) {
    data_.reserve(((n + kDomBlockWidth - 1) / kDomBlockWidth) *
                  kDomBlockWidth * static_cast<size_t>(k_));
  }

  /// Appends a point given by `k()` coordinates. The domain is NaN-free
  /// (skyline coordinates are real costs); NaN would silently corrupt
  /// every comparison-based kernel, so it is rejected in debug builds.
  void Append(const double* row) {
    if (size_ % kDomBlockWidth == 0) {
      data_.resize(data_.size() + kDomBlockWidth * static_cast<size_t>(k_),
                   std::numeric_limits<double>::infinity());
    }
    double* block = BlockData(size_ / kDomBlockWidth);
    const size_t lane = size_ % kDomBlockWidth;
    for (int d = 0; d < k_; ++d) {
      SKYPEER_DCHECK(!std::isnan(row[d]));
      block[static_cast<size_t>(d) * kDomBlockWidth + lane] = row[d];
    }
    ++size_;
  }

  /// Overwrites point `i` with `+inf` so it can never again dominate a
  /// query point. Used when the owning window evicts a candidate.
  void Kill(size_t i) {
    SKYPEER_DCHECK(i < size_);
    double* block = BlockData(i / kDomBlockWidth);
    const size_t lane = i % kDomBlockWidth;
    for (int d = 0; d < k_; ++d) {
      block[static_cast<size_t>(d) * kDomBlockWidth + lane] =
          std::numeric_limits<double>::infinity();
    }
  }

  /// Gathers the `k()` coordinates of point `i` into `out`.
  void Row(size_t i, double* out) const {
    SKYPEER_DCHECK(i < size_);
    const double* block = BlockData(i / kDomBlockWidth);
    const size_t lane = i % kDomBlockWidth;
    for (int d = 0; d < k_; ++d) {
      out[d] = block[static_cast<size_t>(d) * kDomBlockWidth + lane];
    }
  }

  void Clear() {
    data_.clear();
    size_ = 0;
  }

  const double* BlockData(size_t b) const {
    return data_.data() + b * kDomBlockWidth * static_cast<size_t>(k_);
  }

 private:
  double* BlockData(size_t b) {
    return data_.data() + b * kDomBlockWidth * static_cast<size_t>(k_);
  }

  int k_;
  size_t size_ = 0;
  std::vector<double> data_;
};

/// Which kernel implementation the dispatcher resolved to.
enum class DomKernelMode {
  kScalar,  ///< Blocked loops, no explicit SIMD (compiler may auto-vectorize).
  kAvx2,    ///< Explicit AVX2 intrinsics (x86-64, runtime-detected).
  kNeon,    ///< Explicit NEON intrinsics (AArch64).
};

/// The active implementation: `SKYPEER_FORCE_SCALAR` (env, non-empty and
/// not "0") or `SetForceScalarKernels(true)` pins `kScalar`; otherwise the
/// best path the CPU supports.
DomKernelMode ActiveDomKernelMode();

/// Short name of a mode: "scalar", "avx2", "neon".
const char* DomKernelModeName(DomKernelMode mode);

/// Overrides dispatch for testing: `true` forces the scalar path, `false`
/// restores default dispatch (`SKYPEER_FORCE_SCALAR` re-checked, then CPU
/// detection). Thread-safe; affects subsequently issued kernel calls
/// process-wide.
void SetForceScalarKernels(bool force);

/// Lowest stored index `i` of `w` whose point dominates `q` (`k()`
/// coordinates), or `w.size()` when none does — strictly on every
/// dimension when `strict` (ext-dominance), the usual `<= everywhere,
/// < somewhere` otherwise. Killed and padding lanes are `+inf` and never
/// dominate. Equivalent to the first `i` for which `Dominates(p_i, q)`
/// holds; evaluated blockwise, stopping at the first block with a hit.
size_t FirstDominator(const BlockedProjection& w, const double* q,
                      bool strict);

/// True if some stored point of `w` dominates `q`:
/// `FirstDominator(w, q, strict) < w.size()`.
bool AnyDominates(const BlockedProjection& w, const double* q, bool strict);

/// For every stored point `i`, sets bit `i % 8` of `out_masks[i / 8]` to
/// whether `p` dominates point `i`. `out_masks` must hold `num_blocks()`
/// bytes. Padding lanes past `size()` are reported as 0; killed (`+inf`)
/// lanes are reported as dominated and must be filtered by the caller.
void DominatedMask(const BlockedProjection& w, const double* p, bool strict,
                   uint8_t* out_masks);

/// Row-major variant of `AnyDominates` for data that lives in an existing
/// layout (R-tree node and leaf entries): row `i` starts at
/// `rows + i * stride` and spans `k` doubles. Exactly equivalent to
/// OR-ing `Dominates(row_i, q)` over the `n` rows.
bool AnyDominatesRows(const double* rows, size_t stride, size_t n, int k,
                      const double* q, bool strict);

/// Row-major variant of `DominatedMask`: `out[i]` is set to 1 when `p`
/// dominates row `i`, 0 otherwise. `out` must hold `n` bytes.
void DominatedFlagsRows(const double* rows, size_t stride, size_t n, int k,
                        const double* p, bool strict, uint8_t* out);

/// Batched `f(p) = min_i p[i]` over `n` row-major `dims`-dimensional rows
/// (paper §5.1); `out` receives `n` values. Reduces each row in dimension
/// order, so results are bit-identical to scalar `MinCoord`.
void BatchMinCoord(const double* rows, size_t n, int dims, double* out);

/// Summary-vs-window probe of the block-skipping scans: true when some
/// stored point of `w` dominates `m`, the u-projected per-dimension
/// *minimum vector* of an upcoming 8-wide store block (`k()`
/// coordinates). Dominating the min-vector implies dominating every point
/// of the block (each is coordinate-wise >= the minima), so a true return
/// licenses rejecting the whole block without per-point tests. Runs the
/// same comparisons as `AnyDominates`, hence bit-identical across
/// scalar/SIMD dispatch.
bool AnyDominatesSummary(const BlockedProjection& w, const double* m,
                         bool strict);

}  // namespace skypeer

#endif  // SKYPEER_COMMON_DOMINANCE_BATCH_H_
