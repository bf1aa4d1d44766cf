#include "skypeer/storage/store_summary.h"

#include <algorithm>
#include <limits>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/macros.h"

namespace skypeer {

StoreSummary StoreSummary::Build(const ResultList& list,
                                 const PageLayout& layout) {
  StoreSummary summary;
  summary.dims_ = layout.dims;
  summary.size_ = list.size();
  const size_t n = list.size();
  const size_t dims = static_cast<size_t>(layout.dims);
  const size_t num_blocks = (n + kDomBlockWidth - 1) / kDomBlockWidth;
  summary.block_min_.resize(num_blocks * dims);
  summary.block_f_min_.resize(num_blocks);
  summary.block_f_max_.resize(num_blocks);

  // Per-block minima via the BatchMinCoord kernels on a dim-major 8-lane
  // strip (exactly the blocked page layout of one block's coordinates):
  // with (rows = strip, n = dims, dims = 8) each "row" is one dimension's
  // 8 lanes and out[d] reduces them in fixed lane order. Padding lanes
  // are +inf and never win.
  constexpr double kPad = std::numeric_limits<double>::infinity();
  std::vector<double> strip(dims * kDomBlockWidth);
  for (size_t b = 0; b < num_blocks; ++b) {
    std::fill(strip.begin(), strip.end(), kPad);
    const size_t begin = b * kDomBlockWidth;
    const size_t end = std::min(n, begin + kDomBlockWidth);
    for (size_t i = begin; i < end; ++i) {
      const double* row = list.points[i];
      const size_t lane = i - begin;
      for (size_t d = 0; d < dims; ++d) {
        strip[d * kDomBlockWidth + lane] = row[d];
      }
    }
    BatchMinCoord(strip.data(), dims, static_cast<int>(kDomBlockWidth),
                  &summary.block_min_[b * dims]);
    summary.block_f_min_[b] = list.f[begin];
    summary.block_f_max_[b] = list.f[end - 1];
  }

  // Page-level fold in ascending block order. Only min/max comparisons,
  // so the fold order cannot change any comparison outcome downstream.
  const size_t num_pages = layout.PagesForPoints(n);
  const size_t bpp = layout.blocks_per_page();
  summary.page_min_.resize(num_pages * dims, kPad);
  summary.page_f_min_.resize(num_pages);
  summary.page_f_max_.resize(num_pages);
  for (size_t p = 0; p < num_pages; ++p) {
    const size_t first = p * bpp;
    const size_t last = std::min(num_blocks, first + bpp);
    SKYPEER_DCHECK(first < last);
    double* fold = &summary.page_min_[p * dims];
    for (size_t b = first; b < last; ++b) {
      const double* m = &summary.block_min_[b * dims];
      for (size_t d = 0; d < dims; ++d) {
        fold[d] = std::min(fold[d], m[d]);
      }
    }
    summary.page_f_min_[p] = summary.block_f_min_[first];
    summary.page_f_max_[p] = summary.block_f_max_[last - 1];
  }
  return summary;
}

Status ValidateStoreSummary(const StoreSummary& summary,
                            const ResultList& list, const PageLayout& layout) {
  const StoreSummary expected = StoreSummary::Build(list, layout);
  if (summary.dims() != expected.dims() || summary.size() != expected.size() ||
      summary.num_blocks() != expected.num_blocks() ||
      summary.num_pages() != expected.num_pages()) {
    return Status::InvalidArgument(
        "store summary does not match its store's shape");
  }
  const size_t dims = static_cast<size_t>(summary.dims());
  for (size_t b = 0; b < summary.num_blocks(); ++b) {
    if (summary.block_f_min(b) != expected.block_f_min(b) ||
        summary.block_f_max(b) != expected.block_f_max(b)) {
      return Status::InvalidArgument("store summary block f-range is wrong");
    }
    if (!std::equal(summary.block_min(b), summary.block_min(b) + dims,
                    expected.block_min(b))) {
      return Status::InvalidArgument("store summary block min-vector is wrong");
    }
  }
  for (size_t p = 0; p < summary.num_pages(); ++p) {
    if (summary.page_f_min(p) != expected.page_f_min(p) ||
        summary.page_f_max(p) != expected.page_f_max(p) ||
        !std::equal(summary.page_min(p), summary.page_min(p) + dims,
                    expected.page_min(p))) {
      return Status::InvalidArgument("store summary page fold is wrong");
    }
  }
  return Status::OK();
}

}  // namespace skypeer
