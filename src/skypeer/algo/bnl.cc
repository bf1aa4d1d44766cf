#include "skypeer/algo/bnl.h"

#include <algorithm>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/macros.h"

namespace skypeer {

namespace {

/// \brief The BNL candidate window on the blocked dominance kernels.
///
/// Holds the u-projected candidates in a `BlockedProjection`, beside
/// their full row copies, ids and alive flags. Each offer runs one
/// forward `FirstDominator` pass and, when the point survives, one
/// reverse `DominatedMask` pass; evicted lanes are `Kill`ed to `+inf` and
/// stable-compacted away once they make up half of a window of at least
/// `kCompactMinWindow` slots.
///
/// The logical work charged is that of the classic per-pair BNL loop,
/// which for every window entry in order tests "entry dominates p" and
/// then "p dominates entry", stopping at the first dominator: a point
/// dominated by the live entry at live rank `r` costs `2r + 1` tests, a
/// surviving point `2 * alive`. Window order, result order and test
/// counts are therefore identical to that loop. The per-pair loop also
/// evicts entries ahead of the dominator, but there are never any: the
/// window entries are mutually non-dominated, so an entry `p` dominates
/// would be dominated by `p`'s own dominator too (dominance and
/// ext-dominance are transitive).
class BnlWindow {
 public:
  static constexpr size_t kCompactMinWindow = 64;

  BnlWindow(int dims, Subspace u, bool ext)
      : u_(u), strict_(ext), rows_(dims), proj_(u.Count()) {}

  /// Offers `p` (full-dimensional row); the window copies what it keeps.
  void Offer(const double* p, PointId id) {
    double q[kMaxDims];
    int j = 0;
    for (int dim : u_) {
      q[j++] = p[dim];
    }
    const size_t first = FirstDominator(proj_, q, strict_);
    if (first < proj_.size()) {
      tests_ += 2 * AliveBefore(first) + 1;
      SKYPEER_DCHECK(EvictsNothing(q));
      return;
    }
    tests_ += 2 * alive_;
    if (alive_ != 0) {
      Evict(q);
    }
    rows_.Append(p, id);
    proj_.Append(q);
    alive_flags_.push_back(1);
    ++alive_;
  }

  uint64_t tests() const { return tests_; }

  /// The surviving candidates in window order.
  PointSet TakeResult() {
    Compact();
    return std::move(rows_);
  }

 private:
  /// Live entries stored before slot `i`.
  size_t AliveBefore(size_t i) const {
    if (alive_ == alive_flags_.size()) {
      return i;
    }
    return static_cast<size_t>(
        std::count(alive_flags_.begin(),
                   alive_flags_.begin() + static_cast<std::ptrdiff_t>(i), 1));
  }

  void Evict(const double* q) {
    masks_.resize(proj_.num_blocks());
    DominatedMask(proj_, q, strict_, masks_.data());
    for (size_t b = 0; b < masks_.size(); ++b) {
      unsigned mask = masks_[b];
      while (mask != 0) {
        const size_t i =
            b * kDomBlockWidth + static_cast<size_t>(__builtin_ctz(mask));
        mask &= mask - 1;
        // Killed lanes are +inf and come back flagged as dominated.
        if (alive_flags_[i]) {
          alive_flags_[i] = 0;
          proj_.Kill(i);
          --alive_;
        }
      }
    }
    if (alive_flags_.size() >= kCompactMinWindow &&
        alive_ * 2 < alive_flags_.size()) {
      Compact();
    }
  }

  /// Stable removal of evicted slots.
  void Compact() {
    if (alive_ == alive_flags_.size()) {
      return;
    }
    PointSet rows(rows_.dims());
    rows.Reserve(alive_);
    BlockedProjection proj(proj_.k());
    proj.Reserve(alive_);
    double row[kMaxDims];
    for (size_t i = 0; i < alive_flags_.size(); ++i) {
      if (alive_flags_[i]) {
        rows.AppendFrom(rows_, i);
        proj_.Row(i, row);
        proj.Append(row);
      }
    }
    rows_ = std::move(rows);
    proj_ = std::move(proj);
    alive_flags_.assign(alive_, 1);
  }

  /// Debug check of the class invariant: a dominated offer evicts nothing.
  bool EvictsNothing(const double* q) {
    masks_.resize(proj_.num_blocks());
    DominatedMask(proj_, q, strict_, masks_.data());
    for (size_t i = 0; i < alive_flags_.size(); ++i) {
      if (alive_flags_[i] &&
          ((masks_[i / kDomBlockWidth] >> (i % kDomBlockWidth)) & 1) != 0) {
        return false;
      }
    }
    return true;
  }

  Subspace u_;
  bool strict_;
  PointSet rows_;            // full row copies with ids, window order
  BlockedProjection proj_;   // u-projections; evicted slots are +inf
  std::vector<char> alive_flags_;
  size_t alive_ = 0;
  uint64_t tests_ = 0;
  std::vector<uint8_t> masks_;  // per-block eviction bit masks
};

}  // namespace

PointSet BnlSkyline(const PointSet& input, Subspace u, bool ext,
                    OpCounts* ops) {
  SKYPEER_CHECK(!u.empty());
  const size_t n = input.size();
  BnlWindow window(input.dims(), u, ext);
  for (size_t i = 0; i < n; ++i) {
    window.Offer(input[i], input.id(i));
  }
  if (ops != nullptr) {
    ops->dominance_tests += window.tests();
    ops->scan_steps += n;
  }
  return window.TakeResult();
}

PointSet BnlSkylineView(const StoreView& input, Subspace u, bool ext,
                        OpCounts* ops) {
  SKYPEER_CHECK(!u.empty());
  const size_t n = input.size();
  StoreCursor cursor(input);
  BnlWindow window(input.dims(), u, ext);
  for (size_t i = 0; i < n; ++i) {
    const PointId id = cursor.id(i);
    window.Offer(cursor.row(i), id);
  }
  if (ops != nullptr) {
    ops->dominance_tests += window.tests();
    ops->scan_steps += n;
    ChargeScanPages(input.layout(), n, n, ops);
  }
  return window.TakeResult();
}

}  // namespace skypeer
