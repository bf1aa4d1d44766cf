#ifndef SKYPEER_STORAGE_STORE_SUMMARY_H_
#define SKYPEER_STORAGE_STORE_SUMMARY_H_

#include <cstddef>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/status.h"
#include "skypeer/storage/page_layout.h"

namespace skypeer {

/// \brief Always-resident zone-map summary of an f-sorted blocked-SoA
/// store: per 8-wide block the per-dimension minima (full-dimensional,
/// projected onto the query subspace at probe time) plus the block's
/// `[f_min, f_max]` range, and per page the fold of its blocks.
///
/// The summary is what block-skipping threshold scans
/// (`ThresholdScanOptions::block_skip`) consult before touching a block:
/// a block whose min-vector is dominated by a live window point
/// contributes nothing and is consumed without per-point dominance tests
/// — and, when its `f` range also fits under the running threshold,
/// without reading the block at all, so runs of skipped blocks leave
/// whole pages unpinned and unread.
///
/// Built by one shared pure function of `(list, layout)` — the same
/// `BatchMinCoord` kernel reduction in both store modes — so a paged
/// store and its in-memory twin carry bit-identical summaries and every
/// skip decision (hence every result and every simulated metric) is
/// identical across store modes, thread counts and kernel dispatch.
/// Block geometry depends only on `kDomBlockWidth`; only the page-level
/// fold (used for physical read-ahead filtering) depends on the page
/// size.
///
/// Size: `(dims + 2)` doubles per 8 points — under 5% of the store for
/// typical dimensionalities, held in memory even when the store pages to
/// disk (consulting it never pins a frame).
class StoreSummary {
 public:
  StoreSummary() = default;

  /// Builds the summary of f-sorted `list` under `layout`. Per-dimension
  /// block minima are reduced with the `BatchMinCoord` kernels in fixed
  /// lane order; `f` ranges come straight off the sorted `f` column.
  static StoreSummary Build(const ResultList& list, const PageLayout& layout);

  /// False on a default-constructed summary (scans then fall back to the
  /// plain full scan even when skipping was requested).
  bool valid() const { return dims_ > 0; }
  int dims() const { return dims_; }
  /// Number of points of the summarized store.
  size_t size() const { return size_; }
  size_t num_blocks() const { return block_f_min_.size(); }
  size_t num_pages() const { return page_f_min_.size(); }

  /// Per-dimension minima over the (up to 8) points of block `b`;
  /// `dims()` doubles.
  const double* block_min(size_t b) const { return &block_min_[b * dims_]; }
  /// `f` of the first point of block `b` (blocks are f-sorted).
  double block_f_min(size_t b) const { return block_f_min_[b]; }
  /// `f` of the last live point of block `b`.
  double block_f_max(size_t b) const { return block_f_max_[b]; }

  /// Fold of the block minima of page `p`; `dims()` doubles.
  const double* page_min(size_t p) const { return &page_min_[p * dims_]; }
  double page_f_min(size_t p) const { return page_f_min_[p]; }
  double page_f_max(size_t p) const { return page_f_max_[p]; }

 private:
  int dims_ = 0;
  size_t size_ = 0;
  // Block-level zone maps, row-major `dims_` doubles per block.
  std::vector<double> block_min_;
  std::vector<double> block_f_min_;
  std::vector<double> block_f_max_;
  // Page-level fold of the blocks (geometry from the build layout).
  std::vector<double> page_min_;
  std::vector<double> page_f_min_;
  std::vector<double> page_f_max_;
};

/// Checks `summary` against a rebuild from `list` under `layout`: the
/// point count, every block's f-range and min-vector, and the page folds
/// must match bit for bit. Block-skipping scans trust the min-vectors and
/// trace replays place their cut by `block_f_max`, so a summary that
/// disagrees with its store would change answers silently; this is the
/// summary half of `ValidateStore`.
Status ValidateStoreSummary(const StoreSummary& summary,
                            const ResultList& list, const PageLayout& layout);

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_STORE_SUMMARY_H_
