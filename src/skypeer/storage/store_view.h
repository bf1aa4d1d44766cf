#ifndef SKYPEER_STORAGE_STORE_VIEW_H_
#define SKYPEER_STORAGE_STORE_VIEW_H_

#include <cstddef>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_summary.h"

namespace skypeer {

/// \brief Uniform read-only view over an f-sorted store, either resident
/// (`ResultList`) or paged (`PagedStore`).
///
/// The view is a cheap immutable descriptor; per-scan state (the pinned
/// frame, the gathered row) lives in `StoreCursor`, so concurrent scans
/// each open their own cursor. Both modes carry a `PageLayout`: logical
/// page charges derive from the layout alone, which keeps paged and
/// in-memory runs bit-identical.
class StoreView {
 public:
  /// View over a resident list; `page_size` fixes the logical page
  /// geometry (the default mirrors the `--page-size` default). `summary`
  /// optionally attaches a zone-map summary of the same list (see
  /// `StoreSummary`); without one, block-skipping scans fall back to the
  /// plain full scan.
  explicit StoreView(const ResultList* list,
                     size_t page_size = kDefaultPageSize,
                     const StoreSummary* summary = nullptr)
      : list_(list), layout_(page_size, list->points.dims()),
        summary_(summary) {}

  /// View over a paged store; its own summary (built at spill time) rides
  /// along automatically.
  explicit StoreView(const PagedStore* store)
      : store_(store), layout_(store->layout()), summary_(store->summary()) {}

  size_t size() const { return list_ != nullptr ? list_->size() : store_->size(); }
  bool empty() const { return size() == 0; }
  int dims() const { return layout_.dims; }
  const PageLayout& layout() const { return layout_; }
  bool paged() const { return store_ != nullptr; }
  const ResultList* list() const { return list_; }
  const PagedStore* paged_store() const { return store_; }
  /// Zone-map summary of this store, or null when none was attached
  /// (valid summaries only; an invalid one is reported as null).
  const StoreSummary* summary() const {
    return (summary_ != nullptr && summary_->valid()) ? summary_ : nullptr;
  }

 private:
  const ResultList* list_ = nullptr;
  const PagedStore* store_ = nullptr;
  PageLayout layout_;
  const StoreSummary* summary_ = nullptr;
};

/// \brief Stateful reader over a `StoreView`.
///
/// Random access API (`f(i)`, `row(i)`, `id(i)`); sequential use in
/// ascending `i` is the fast path. On a paged view the cursor keeps
/// exactly one page pinned — it releases the current pin before pinning
/// the next page, so any number of concurrent cursors make progress on a
/// pool of >= 2 frames — and issues deterministic read-ahead for the
/// next pages along scan order whenever it crosses a page boundary
/// moving forward. `row(i)` returns a pointer valid until the next
/// cursor call.
class StoreCursor {
 public:
  /// Pages of read-ahead issued when the cursor crosses into a new page.
  static constexpr size_t kPrefetchDepth = 2;
  /// How far past the current page the read-ahead looks for non-skipped
  /// pages when a prefetch filter is installed.
  static constexpr size_t kPrefetchLookahead = 8;

  /// Predicate consulted by the read-ahead: true means "this page will
  /// (predictably) be skipped entirely, do not prefetch it".
  using PrefetchFilter = std::function<bool(size_t page_index)>;

  explicit StoreCursor(const StoreView& view)
      : list_(view.list()), store_(view.paged_store()), layout_(view.layout()) {
    if (store_ != nullptr) {
      row_scratch_.resize(static_cast<size_t>(layout_.dims));
    }
  }
  ~StoreCursor() { ReleasePage(); }

  StoreCursor(const StoreCursor&) = delete;
  StoreCursor& operator=(const StoreCursor&) = delete;

  /// Installs a read-ahead filter: forward page crossings then prefetch
  /// the first `kPrefetchDepth` upcoming pages the filter does *not*
  /// predict-skip (looking at most `kPrefetchLookahead` pages ahead), so
  /// read-ahead jumps over pages a block-skipping scan will never touch.
  /// Purely physical: prefetches are best-effort hints and never enter
  /// logical op counts, so an imperfect prediction (the window tightens
  /// after the hint) costs at most one wasted or missed prefetch.
  void set_prefetch_filter(PrefetchFilter filter) {
    prefetch_filter_ = std::move(filter);
  }

  /// Turns read-ahead off for random-access readers (trace replays jump
  /// straight to the few pages they need; prefetching the pages after
  /// each would read what the replay never touches).
  void disable_read_ahead() { read_ahead_ = false; }

  double f(size_t i) {
    if (list_ != nullptr) {
      return list_->f[i];
    }
    const double* block = Block(i);
    return block[static_cast<size_t>(layout_.dims) * kDomBlockWidth +
                 i % kDomBlockWidth];
  }

  const double* row(size_t i) {
    if (list_ != nullptr) {
      return list_->points[i];
    }
    const double* block = Block(i);
    const size_t lane = i % kDomBlockWidth;
    for (size_t d = 0; d < row_scratch_.size(); ++d) {
      row_scratch_[d] = block[d * kDomBlockWidth + lane];
    }
    return row_scratch_.data();
  }

  PointId id(size_t i) {
    if (list_ != nullptr) {
      return list_->points.id(i);
    }
    const double* block = Block(i);
    PointId id;
    std::memcpy(
        &id,
        &block[(static_cast<size_t>(layout_.dims) + 1) * kDomBlockWidth +
               i % kDomBlockWidth],
        sizeof(PointId));
    return id;
  }

 private:
  static constexpr size_t kNoPage = ~size_t{0};

  /// Pointer to the 8-wide block holding point `i`, pinning its page.
  const double* Block(size_t i) {
    const size_t page = i / layout_.points_per_page();
    if (page != current_page_) {
      EnterPage(page);
    }
    const size_t local = i % layout_.points_per_page();
    return page_data_ + (local / kDomBlockWidth) * layout_.doubles_per_block();
  }

  void EnterPage(size_t page) {
    BufferManager* buffer = store_->buffer();
    const bool forward = current_page_ == kNoPage || page > current_page_;
    ReleasePage();
    page_data_ =
        reinterpret_cast<const double*>(buffer->Pin(store_->page_id(page)));
    current_page_ = page;
    if (forward && read_ahead_) {
      const size_t last = store_->num_pages() - 1;
      size_t issued = 0;
      for (size_t ahead = 1;
           issued < kPrefetchDepth && ahead <= kPrefetchLookahead; ++ahead) {
        if (page + ahead > last) {
          break;
        }
        if (prefetch_filter_ && prefetch_filter_(page + ahead)) {
          continue;  // scan will jump this page; read ahead past it
        }
        buffer->Prefetch(store_->page_id(page + ahead));
        ++issued;
      }
    }
  }

  void ReleasePage() {
    if (current_page_ != kNoPage) {
      store_->buffer()->Unpin(store_->page_id(current_page_));
      current_page_ = kNoPage;
      page_data_ = nullptr;
    }
  }

  const ResultList* list_ = nullptr;
  const PagedStore* store_ = nullptr;
  PageLayout layout_;
  size_t current_page_ = kNoPage;
  const double* page_data_ = nullptr;
  std::vector<double> row_scratch_;
  PrefetchFilter prefetch_filter_;
  bool read_ahead_ = true;
};

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_STORE_VIEW_H_
