#include "skypeer/algo/sorted_skyline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

namespace {

/// Wall seconds since `start`; charged as the scan's own work time.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Growable event buffers of a traced scan, packed into a `ScanTrace`
/// once the scan ends.
struct TraceRecorder {
  std::vector<ScanTrace::Accept> accepts;
  std::vector<uint32_t> seed_evictors;
  std::vector<char> block_rejected;
};

/// Shared consume loop of every threshold-scan form: scans `input` in
/// ascending order, offering each point whose `f` is within the
/// accumulator's running threshold, and returns the number of points
/// consumed. Scan-level charges (scan steps, page charges and — under
/// block skipping — summary probes and skipped blocks) accumulate into
/// `scan_ops`, kept apart from the accumulator's window-evolution ops.
/// When `trace` is non-null, accept/evict events are recorded as
/// `ScanTrace` documents; offers are tagged with the accept index they
/// get if accepted, so eviction tags index the records directly.
///
/// With `block_skip` and a store summary attached, each 8-wide block is
/// probed before its points: a block whose min-vector is dominated by a
/// live window entry is consumed without per-point offers — wholesale
/// (without reading the store at all) when its `[f_min, f_max]` range
/// fits under the running threshold, else by a per-position `f` walk
/// that keeps the stopping point bit-identical to the plain scan. Page
/// charges then switch from the whole-prefix `ChargeScanPages` to
/// incremental per-page touches, so pages covered only by wholesale-
/// skipped blocks are never charged (nor pinned on a paged store).
size_t RunThresholdScanLoop(const StoreView& input, bool block_skip,
                            SkylineAccumulator* acc, OpCounts* scan_ops,
                            TraceRecorder* trace) {
  const size_t end = input.size();
  const StoreSummary* summary = input.summary();
  const bool skip = block_skip && summary != nullptr;
  StoreCursor cursor(input);
  std::vector<uint64_t> evicted;
  const auto consume = [&](size_t i, double f) {
    const double* p = cursor.row(i);
    const PointId id = cursor.id(i);
    if (trace == nullptr) {
      acc->Offer(p, id, f);
      return;
    }
    evicted.clear();
    const uint32_t index = static_cast<uint32_t>(trace->accepts.size());
    if (!acc->OfferTagged(p, id, f, index, &evicted)) {
      return;
    }
    for (uint64_t victim : evicted) {
      if (victim == SkylineAccumulator::kNoTag) {
        trace->seed_evictors.push_back(index);
      } else {
        trace->accepts[victim].evictor = index;
      }
    }
    trace->accepts.push_back({static_cast<uint32_t>(i),
                              ScanTrace::kNeverEvicted});
  };

  if (!skip) {
    size_t scanned = 0;
    for (size_t i = 0; i < end; ++i) {
      const double f = cursor.f(i);
      if (f > acc->threshold()) {
        break;
      }
      consume(i, f);
      ++scanned;
    }
    scan_ops->scan_steps += scanned;
    ChargeScanPages(input.layout(), end, scanned, scan_ops);
    return scanned;
  }

  if (input.paged()) {
    // Physical-only read-ahead hint: upcoming pages whose summary fold
    // already satisfies both skip conditions will never be pinned by
    // this scan, so read-ahead jumps them. The filter consults the live
    // threshold and window, so a hint can be stale by the time the scan
    // arrives — that costs one synchronous pin, never correctness, and
    // logical charges do not see prefetches at all.
    cursor.set_prefetch_filter([acc, summary](size_t page) {
      return summary->page_f_max(page) <= acc->threshold() &&
             acc->WindowRejectsSummary(summary->page_min(page));
    });
  }

  const PageLayout& layout = input.layout();
  const size_t points_per_page = layout.points_per_page();
  size_t last_page = static_cast<size_t>(-1);
  // Incremental page charging: positions ascend and every 8-block sits
  // inside one page (pages hold whole blocks), so charging on page
  // change reproduces `ChargeScanPages` exactly when nothing skips
  // wholesale, and drops exactly the pages no position of which is
  // examined. Identical in both store modes — it reads the layout only.
  const auto touch = [&](size_t i) {
    const size_t page = i / points_per_page;
    if (page != last_page) {
      scan_ops->page_reads += 1;
      scan_ops->page_bytes += layout.page_size;
      last_page = page;
    }
  };
  size_t scanned = 0;
  size_t i = 0;
  while (i < end) {
    const size_t block = i / kDomBlockWidth;
    const size_t block_end = std::min(end, (block + 1) * kDomBlockWidth);
    // Cheapest test first: the block's own f minimum (its first point —
    // the store is f-sorted) already proves the stop condition without
    // touching the store or the window. Charges nothing, exactly like
    // the plain scan's terminating f-read.
    if (summary->block_f_min(block) > acc->threshold()) {
      break;
    }
    scan_ops->summary_tests += 1;
    const bool rejected = acc->WindowRejectsSummary(summary->block_min(block));
    if (trace != nullptr) {
      trace->block_rejected.push_back(rejected ? 1 : 0);
    }
    if (rejected) {
      scan_ops->blocks_skipped += 1;
      if (summary->block_f_max(block) <= acc->threshold()) {
        // Wholesale skip: every point of the block is within threshold
        // and dominated; consume the block without reading it. No scan
        // steps, no page touch — and rejected points have no side
        // effects on window or threshold, so nothing downstream can
        // tell the offers never ran.
        scanned += block_end - i;
        i = block_end;
        continue;
      }
      // The running threshold may cut inside this block: walk `f` only
      // (no dominance work — the probe already rejected every point) so
      // the stopping position, and with it `scanned`, stays
      // bit-identical to the plain scan.
      bool stopped = false;
      for (; i < block_end; ++i) {
        touch(i);
        if (cursor.f(i) > acc->threshold()) {
          stopped = true;
          break;
        }
        scan_ops->scan_steps += 1;
        ++scanned;
      }
      if (stopped) {
        break;
      }
      continue;
    }
    // Unrejected block: the plain per-point offer loop. Accepts may
    // tighten the threshold mid-block; later block probes see it.
    bool stopped = false;
    for (; i < block_end; ++i) {
      touch(i);
      const double f = cursor.f(i);
      if (f > acc->threshold()) {
        stopped = true;
        break;
      }
      consume(i, f);
      scan_ops->scan_steps += 1;
      ++scanned;
    }
    if (stopped) {
      break;
    }
  }
  return scanned;
}

}  // namespace

ResultList BuildSortedByF(const PointSet& input) {
  const int dims = input.dims();
  std::vector<double> f(input.size());
  BatchMinCoord(input.values().data(), input.size(), dims, f.data());
  std::vector<size_t> order(input.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&f](size_t a, size_t b) { return f[a] < f[b]; });
  ResultList result(dims);
  result.points.Reserve(input.size());
  result.f.reserve(input.size());
  for (size_t i : order) {
    result.points.AppendFrom(input, i);
    result.f.push_back(f[i]);
  }
  return result;
}

Status ValidateStore(const ResultList& store, int dims) {
  if (store.points.dims() != dims) {
    return Status::InvalidArgument("store dimensionality mismatch");
  }
  if (store.f.size() != store.points.size()) {
    return Status::InvalidArgument("store f is not parallel to its points");
  }
  std::vector<PointId> ids;
  ids.reserve(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    const double* row = store.points[i];
    for (int d = 0; d < dims; ++d) {
      if (!std::isfinite(row[d]) || row[d] < 0.0) {
        return Status::InvalidArgument(
            "store coordinate is not finite and non-negative");
      }
    }
    if (store.f[i] != MinCoord(row, dims)) {
      return Status::InvalidArgument("store f is not the minimum coordinate");
    }
    if (i > 0 && store.f[i] < store.f[i - 1]) {
      return Status::InvalidArgument("store is not f-sorted");
    }
    ids.push_back(store.points.id(i));
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::InvalidArgument("store point ids are not unique");
  }
  return Status::OK();
}

SkylineAccumulator::SkylineAccumulator(int dims, Subspace u,
                                       const ThresholdScanOptions& options)
    : dims_(dims),
      u_(u),
      strict_(options.ext),
      compact_min_window_(options.compact_min_window),
      compact_live_fraction_(options.compact_live_fraction),
      full_space_(u == Subspace::FullSpace(dims)),
      threshold_(options.initial_threshold),
      window_points_(dims),
      window_proj_(u.Count()) {
  SKYPEER_CHECK(!u.empty());
}

void SkylineAccumulator::EvictDominatedLinear(
    const double* proj, std::vector<uint64_t>* evicted_tags) {
  // One reverse-dominance bit mask per block, then evictions applied in
  // ascending index order (blocks ascending, bits via ctz) so the
  // `evicted_tags` order matches the historical per-point loop. Killed
  // lanes are +inf and come back flagged as "dominated"; `alive_flags_`
  // filters them out.
  ops_.dominance_tests += window_points_.size();
  scratch_masks_.resize(window_proj_.num_blocks());
  DominatedMask(window_proj_, proj, strict_, scratch_masks_.data());
  for (size_t b = 0; b < scratch_masks_.size(); ++b) {
    unsigned mask = scratch_masks_[b];
    while (mask != 0) {
      const size_t lane = static_cast<size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      const size_t i = b * kDomBlockWidth + lane;
      if (!alive_flags_[i]) {
        continue;
      }
      alive_flags_[i] = 0;
      window_proj_.Kill(i);
      --alive_;
      if (evicted_tags != nullptr) {
        evicted_tags->push_back(window_tags_[i]);
      }
    }
  }
}

bool SkylineAccumulator::OfferTagged(const double* p, PointId id, double f,
                                     uint64_t tag,
                                     std::vector<uint64_t>* evicted_tags) {
  // Observation 5: beyond the threshold the point is dominated by the
  // skyline point that set the threshold. (Ties may survive; see header.)
  if (f > threshold_) {
    return false;
  }

  // Project onto the query subspace once, tracking the projected minimum.
  double proj[kMaxDims];
  double min_u = std::numeric_limits<double>::infinity();
  {
    int j = 0;
    for (int dim : u_) {
      proj[j] = p[dim];
      min_u = std::min(min_u, proj[j]);
      ++j;
    }
  }

  // Killed lanes are +inf and never dominate, so the batched test needs
  // no liveness filtering. Count the logical window size, not the
  // kernel's internal lane count, so scalar and SIMD dispatch report
  // identical work.
  ops_.dominance_tests += window_points_.size();
  // Exact pre-rejection: the accepted offer t with dist_U(t) ==
  // local_threshold_ has every u-coordinate <= local_threshold_ < min_u,
  // so it strictly dominates p on u. t, or the end of its chain of
  // evictors (each coordinate-wise <= t), is live in the window, so the
  // kernel would reject p too. Full-space accumulators skip the test:
  // there min_u == f <= threshold_ <= local_threshold_.
  if (!full_space_ && min_u > local_threshold_) {
    return false;
  }
  if (AnyDominates(window_proj_, proj, strict_)) {
    return false;
  }
  EvictDominatedLinear(proj, evicted_tags);
  MaybeCompact();

  window_points_.Append(p, id);
  window_f_.push_back(f);
  alive_flags_.push_back(1);
  emit_flags_.push_back(1);
  window_tags_.push_back(tag);
  window_proj_.Append(proj);
  ++alive_;

  // A dominator has dist_U no larger than any point it dominates, so the
  // minimum only ever decreases; track it incrementally.
  local_threshold_ = std::min(local_threshold_, DistU(p, u_));
  threshold_ = std::min(threshold_, local_threshold_);
  return true;
}

bool SkylineAccumulator::WindowRejectsSummary(const double* min_row) const {
  double proj[kMaxDims];
  {
    int j = 0;
    for (int dim : u_) {
      proj[j++] = min_row[dim];
    }
  }
  // One batched kernel call; killed lanes are +inf and never dominate.
  // Deliberately uncharged here — callers account `summary_tests` in
  // scan-level ops (see header).
  return AnyDominatesSummary(window_proj_, proj, strict_);
}

void SkylineAccumulator::MaybeCompact() {
  if (window_points_.size() < compact_min_window_ ||
      !(static_cast<double>(alive_) <
        compact_live_fraction_ * static_cast<double>(window_points_.size()))) {
    return;
  }
  PointSet points(dims_);
  points.Reserve(alive_);
  std::vector<double> f;
  f.reserve(alive_);
  std::vector<char> emit;
  emit.reserve(alive_);
  std::vector<uint64_t> tags;
  tags.reserve(alive_);
  BlockedProjection proj(u_.Count());
  proj.Reserve(alive_);
  double row[kMaxDims];
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (!alive_flags_[i]) {
      continue;
    }
    points.AppendFrom(window_points_, i);
    f.push_back(window_f_[i]);
    emit.push_back(emit_flags_[i]);
    tags.push_back(window_tags_[i]);
    window_proj_.Row(i, row);
    proj.Append(row);
  }
  window_points_ = std::move(points);
  window_f_ = std::move(f);
  emit_flags_ = std::move(emit);
  window_tags_ = std::move(tags);
  window_proj_ = std::move(proj);
  alive_flags_.assign(alive_, 1);
}

ResultList SkylineAccumulator::TakeResult() {
  ResultList result(dims_);
  result.points.Reserve(alive_);
  result.f.reserve(alive_);
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (alive_flags_[i] && emit_flags_[i]) {
      result.points.AppendFrom(window_points_, i);
      result.f.push_back(window_f_[i]);
    }
  }
  window_points_.Clear();
  window_f_.clear();
  alive_flags_.clear();
  emit_flags_.clear();
  window_tags_.clear();
  window_proj_.Clear();
  alive_ = 0;
  // The pre-rejection proof needs the accepted points in the window.
  local_threshold_ = std::numeric_limits<double>::infinity();
  return result;
}

void SkylineAccumulator::SeedWindow(const ResultList& seed) {
  SKYPEER_CHECK(window_points_.empty());
  const size_t n = seed.size();
  window_points_.Reserve(n);
  window_f_.reserve(n);
  window_proj_.Reserve(n);
  double proj[kMaxDims];
  for (size_t i = 0; i < n; ++i) {
    window_points_.AppendFrom(seed.points, i);
    window_f_.push_back(seed.f[i]);
    const double* p = seed.points[i];
    int j = 0;
    for (int dim : u_) {
      proj[j++] = p[dim];
    }
    window_proj_.Append(proj);
  }
  alive_flags_.assign(n, 1);
  emit_flags_.assign(n, 0);
  window_tags_.assign(n, kNoTag);
  alive_ = n;
}

ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options,
                         ThresholdScanStats* stats) {
  SKYPEER_DCHECK(input.list() == nullptr || input.list()->IsSorted());
  const auto start = std::chrono::steady_clock::now();
  SkylineAccumulator accumulator(input.dims(), u, options);
  if (options.filter != nullptr && !options.filter->empty()) {
    accumulator.SeedWindow(*options.filter);
  }
  OpCounts scan_ops;
  const size_t scanned = RunThresholdScanLoop(input, options.block_skip,
                                              &accumulator, &scan_ops, nullptr);
  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops += scan_ops;
    stats->cpu_seconds = SecondsSince(start);
  }
  return accumulator.TakeResult();
}

ScanTrace::ScanTrace(const Header& header, const std::vector<Accept>& accepts,
                     const std::vector<uint32_t>& seed_evictors,
                     const std::vector<char>& block_rejected)
    : header_(header),
      num_accepts_(static_cast<uint32_t>(accepts.size())),
      num_seed_evictions_(static_cast<uint32_t>(seed_evictors.size())),
      num_probed_blocks_(static_cast<uint32_t>(block_rejected.size())) {
  const size_t words = num_words();
  if (words == 0) {
    return;
  }
  words_ = std::make_unique<uint32_t[]>(words);  // zeroed: bitmap starts clear
  uint32_t* out = words_.get();
  for (const Accept& accept : accepts) {
    *out++ = accept.position;
    *out++ = accept.evictor;
  }
  std::copy(seed_evictors.begin(), seed_evictors.end(), out);
  out += seed_evictors.size();
  for (size_t b = 0; b < block_rejected.size(); ++b) {
    if (block_rejected[b] != 0) {
      out[b / 32] |= 1u << (b % 32);
    }
  }
}

ResultList TracedSortedSkyline(const StoreView& input, Subspace u,
                               const ThresholdScanOptions& options,
                               ThresholdScanStats* stats, ScanTrace* trace) {
  SKYPEER_DCHECK(input.list() == nullptr || input.list()->IsSorted());
  SKYPEER_CHECK(trace != nullptr);
  SKYPEER_CHECK(input.size() < ScanTrace::kNeverEvicted);

  const auto start = std::chrono::steady_clock::now();
  SkylineAccumulator accumulator(input.dims(), u, options);
  ScanTrace::Header header;
  header.threshold_in = options.initial_threshold;
  header.mask = u.mask();
  header.block_skip = options.block_skip && input.summary() != nullptr;
  header.compact_min_window = options.compact_min_window;
  header.compact_live_fraction = options.compact_live_fraction;
  if (options.filter != nullptr && !options.filter->empty()) {
    // The filter is baked into the recorded accept/evict decisions, so
    // replays need no filter knowledge — but a trace is only valid for
    // scans under the *same* filter.
    accumulator.SeedWindow(*options.filter);
    header.seeds = static_cast<uint32_t>(options.filter->size());
  }
  TraceRecorder recorder;
  OpCounts scan_ops;
  const size_t scanned = RunThresholdScanLoop(input, options.block_skip,
                                              &accumulator, &scan_ops,
                                              &recorder);
  header.scanned = static_cast<uint32_t>(scanned);
  *trace = ScanTrace(header, recorder.accepts, recorder.seed_evictors,
                     recorder.block_rejected);
  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops += scan_ops;
    stats->cpu_seconds = SecondsSince(start);
  }
  return accumulator.TakeResult();
}

namespace {

/// First position in [lo, hi) of f-sorted `input` whose `f` exceeds
/// `threshold`, or `hi`. Resident stores search their `f` column; paged
/// stores search the summary's block maxima and read only the one block
/// the answer lies in.
size_t FirstAbove(const StoreView& input, StoreCursor* cursor, size_t lo,
                  size_t hi, double threshold) {
  if (lo >= hi) {
    return hi;
  }
  if (const ResultList* list = input.list()) {
    return static_cast<size_t>(
        std::upper_bound(list->f.begin() + static_cast<std::ptrdiff_t>(lo),
                         list->f.begin() + static_cast<std::ptrdiff_t>(hi),
                         threshold) -
        list->f.begin());
  }
  // A paged store always carries its summary (built at spill time).
  const StoreSummary* summary = input.summary();
  SKYPEER_CHECK(summary != nullptr);
  // Block maxima ascend with the f-sorted store: find the first block of
  // the range whose maximum exceeds the threshold, then walk its lanes.
  size_t block_lo = lo / kDomBlockWidth;
  size_t block_hi = (hi - 1) / kDomBlockWidth + 1;
  while (block_lo < block_hi) {
    const size_t mid = block_lo + (block_hi - block_lo) / 2;
    if (summary->block_f_max(mid) > threshold) {
      block_hi = mid;
    } else {
      block_lo = mid + 1;
    }
  }
  const size_t begin = std::max(lo, block_lo * kDomBlockWidth);
  const size_t end = std::min(hi, (block_lo + 1) * kDomBlockWidth);
  for (size_t i = begin; i < end; ++i) {
    if (cursor->f(i) > threshold) {
      return i;
    }
  }
  return hi;
}

/// Dominance tests the direct scan charges up to `cut`, rebuilt from the
/// events of the first `accepts` accepted offers (all of them before the
/// cut): every offered position is charged the window's slot count, and
/// an accepted offer once more for its eviction pass; the slot count
/// moves only at accepts — evictions lower the live count, the
/// compaction rule may then drop the dead slots, and the accepted point
/// takes a new slot. Positions of summary-rejected blocks are never
/// offered.
uint64_t ReplayDominanceTests(const ScanTrace& trace, size_t cut,
                              size_t accepts) {
  const ScanTrace::Header& header = trace.header();
  std::vector<uint32_t> evictions(accepts, 0);
  for (size_t k = 0; k < accepts; ++k) {
    const uint32_t evictor = trace.accept(k).evictor;
    if (evictor < accepts) {
      ++evictions[evictor];
    }
  }
  for (size_t s = 0; s < trace.num_seed_evictions(); ++s) {
    const uint32_t evictor = trace.seed_evictor(s);
    if (evictor >= accepts) {
      break;  // ascending
    }
    ++evictions[evictor];
  }
  // Offered positions in [begin, end). A rejected block holds no accept,
  // so it lies inside one accept-to-accept segment; blocks are consumed
  // in order across the ascending segments.
  size_t next_block = 0;
  const auto offered = [&](size_t begin, size_t end) -> uint64_t {
    size_t count = end - begin;
    if (!trace.block_skip()) {
      return count;
    }
    for (; next_block < trace.num_probed_blocks() &&
           next_block * kDomBlockWidth < end;
         ++next_block) {
      if (trace.block_rejected(next_block)) {
        const size_t block_begin = next_block * kDomBlockWidth;
        count -= std::min(block_begin + kDomBlockWidth, end) - block_begin;
      }
    }
    return count;
  };
  uint64_t tests = 0;
  size_t slots = header.seeds;
  size_t alive = header.seeds;
  size_t next = 0;
  for (size_t k = 0; k < accepts; ++k) {
    const size_t position = trace.accept(k).position;
    tests += offered(next, position + 1) * slots + slots;
    alive -= evictions[k];
    if (slots >= header.compact_min_window &&
        static_cast<double>(alive) <
            header.compact_live_fraction * static_cast<double>(slots)) {
      slots = alive;
    }
    ++slots;
    ++alive;
    next = position + 1;
  }
  return tests + offered(next, cut) * slots;
}

/// Scan-level charges (scan steps, pages, and under block skipping the
/// summary probes and skipped blocks) of the direct scan stopping at
/// `cut`.
void ReplayScanCharges(const StoreView& input, const ScanTrace& trace,
                       size_t cut, OpCounts* ops) {
  if (!trace.block_skip()) {
    ops->scan_steps += cut;
    ChargeScanPages(input.layout(), input.size(), cut, ops);
    return;
  }
  // Closed-form reconstruction of the skip scan's charges at the
  // replayed cut, exact because the summary probes are
  // threshold-independent on the shared prefix:
  //  - A probed block's first point is always consumed (its f *is* the
  //    block f-minimum the entry check passed), so a stop at a block
  //    start means that block was never probed. Hence exactly
  //    ceil(cut / 8) blocks are probed.
  //  - A rejected block fully inside the cut is a wholesale skip under
  //    any tighter threshold too: were its f-maximum above the running
  //    threshold, the per-position walk would have stopped inside it and
  //    the cut could not pass its end. Such blocks charge nothing
  //    further.
  //  - Every other probed block walks from its start to the cut (or its
  //    end), one scan step per consumed position, touching its page —
  //    blocks ascend, so first-touch per page reproduces the incremental
  //    charging of the direct scan, including the stop position's page
  //    (always the last probed block's own page).
  const PageLayout& layout = input.layout();
  const size_t blocks = (cut + kDomBlockWidth - 1) / kDomBlockWidth;
  ops->summary_tests += blocks;
  size_t last_page = static_cast<size_t>(-1);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t block_begin = b * kDomBlockWidth;
    const size_t block_end = std::min(block_begin + kDomBlockWidth,
                                      input.size());
    if (b < trace.num_probed_blocks() && trace.block_rejected(b)) {
      ops->blocks_skipped += 1;
      if (block_end <= cut) {
        continue;
      }
    }
    ops->scan_steps += std::min(cut, block_end) - block_begin;
    const size_t page = block_begin / layout.points_per_page();
    if (page != last_page) {
      ops->page_reads += 1;
      ops->page_bytes += layout.page_size;
      last_page = page;
    }
  }
}

}  // namespace

ResultList ReplayScanTrace(const StoreView& input, const ScanTrace& trace,
                           double threshold_in, ThresholdScanStats* stats) {
  SKYPEER_CHECK(threshold_in <= trace.threshold_in());
  const auto start = std::chrono::steady_clock::now();
  const Subspace u = trace.subspace();
  StoreCursor cursor(input);
  cursor.disable_read_ahead();
  // The running threshold under the tighter start is min(threshold_in,
  // running threshold of the recorded scan) at every position, so the
  // replayed scan stops within the recorded prefix, and between two
  // accepts it stays constant: the scan reaches the next accept iff that
  // accept's f is within it (f ascends), else it stops at the first
  // position of the gap whose f exceeds it.
  ResultList accepted(input.dims());
  double threshold = threshold_in;
  size_t accepts = 0;
  size_t next = 0;
  size_t cut = 0;
  while (true) {
    if (accepts == trace.num_accepts()) {
      cut = FirstAbove(input, &cursor, next, trace.size(), threshold);
      break;
    }
    const size_t position = trace.accept(accepts).position;
    const double f = cursor.f(position);
    if (f > threshold) {
      cut = FirstAbove(input, &cursor, next, position, threshold);
      break;
    }
    const double* row = cursor.row(position);
    threshold = std::min(threshold, DistU(row, u));
    accepted.points.Append(row, cursor.id(position));
    accepted.f.push_back(f);
    ++accepts;
    next = position + 1;
  }
  // Survivors: accepted before the cut and not evicted by an accept
  // before it. An eviction past the cut never happens in the replayed
  // scan, so the point stays alive.
  ResultList result(input.dims());
  result.points.Reserve(accepts);
  result.f.reserve(accepts);
  for (size_t k = 0; k < accepts; ++k) {
    if (trace.accept(k).evictor >= accepts) {
      result.points.AppendFrom(accepted.points, k);
      result.f.push_back(accepted.f[k]);
    }
  }
  if (stats != nullptr) {
    stats->scanned = cut;
    stats->final_threshold = threshold;
    // Ops of the *equivalent direct scan*, not of the (much cheaper)
    // replay: the window evolves identically on the shared prefix.
    stats->ops = OpCounts{};
    stats->ops.dominance_tests = ReplayDominanceTests(trace, cut, accepts);
    ReplayScanCharges(input, trace, cut, &stats->ops);
    stats->cpu_seconds = SecondsSince(start);
  }
  return result;
}

}  // namespace skypeer
