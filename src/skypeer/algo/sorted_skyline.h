#ifndef SKYPEER_ALGO_SORTED_SKYLINE_H_
#define SKYPEER_ALGO_SORTED_SKYLINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// Options shared by the threshold-based scan algorithms (paper
/// Algorithms 1 and 2).
struct ThresholdScanOptions {
  /// Use ext-dominance (strict on every dimension) instead of dominance;
  /// the scan then computes the extended skyline of the input.
  bool ext = false;

  /// Threshold the scan starts from. SKYPEER propagates the initiator's
  /// threshold here (paper §5.2.3); infinity means unconstrained.
  double initial_threshold = std::numeric_limits<double>::infinity();

  /// Window compaction policy of `SkylineAccumulator`: evicted slots are
  /// dropped once the window holds at least `compact_min_window` entries
  /// and fewer than `compact_live_fraction` of them are alive. The
  /// defaults reproduce the historical `alive * 2 < size && size >= 64`
  /// rule exactly; raising the fraction bounds the window more tightly on
  /// evict-heavy streams at the cost of more frequent copies.
  size_t compact_min_window = 64;
  double compact_live_fraction = 0.5;

  /// `MergeSortedSkylines` only: skip points whose id was already offered
  /// by an earlier list position. Copies of the same point never dominate
  /// each other, so merging inputs that overlap (e.g. a reply that
  /// travelled both the spanning tree and a reroute detour in the
  /// reliable protocol) would otherwise duplicate skyline points. A no-op
  /// on disjoint inputs — fault-free runs are bit-identical with or
  /// without it.
  bool dedup_ids = false;

  /// Consult the store's zone-map summary (`StoreView::summary()`) before
  /// each 8-wide block: a block whose per-dimension min-vector, projected
  /// on the query subspace, is dominated by a live window entry (or a
  /// seeded filter point) is consumed without per-point dominance tests,
  /// and without reading the store at all when its `[f_min, f_max]` range
  /// also fits under the running threshold — runs of such blocks leave
  /// whole pages unread. Results, thresholds, scan counts and window
  /// evolution are bit-identical to the plain scan; op counts differ only
  /// in the new `summary_tests`/`blocks_skipped` charges and reduced
  /// dominance/scan/page charges, and are themselves bit-identical across
  /// store modes, thread counts and kernels (the probe is a pure function
  /// of summary, subspace and window). Ignored when the view carries no
  /// summary. Off by default for baseline comparability.
  bool block_skip = false;

  /// Threshold-scan algorithms only: broadcast filter set to seed the
  /// window with before scanning (`SkylineAccumulator::SeedWindow`).
  /// Filter points prune offers — and may themselves be evicted by
  /// dominating offers — but are never emitted in the result. Must
  /// outlive the scan. Null or empty means no filter. The filter does not
  /// tighten the threshold: a filter point is not necessarily a skyline
  /// point of the scanned input's home store, but every point it prunes
  /// is dominated by a point the query initiator already holds, so the
  /// final merged answer is unchanged (see filter_set.h).
  const ResultList* filter = nullptr;
};

/// Counters reported by the scan algorithms.
struct ThresholdScanStats {
  /// Points consumed before the threshold terminated the scan.
  size_t scanned = 0;
  /// Threshold value when the scan stopped (min dist_U over the result).
  double final_threshold = std::numeric_limits<double>::infinity();
  /// Logical operations the scan performed (machine-independent; see
  /// `OpCounts`). Replays report the counts of the equivalent direct
  /// scan, so `ops` is identical across thread counts and kernels.
  OpCounts ops;
  /// Host wall seconds of the scan's own work. Only meaningful to the
  /// measured cost model.
  double cpu_seconds = 0.0;
};

/// \brief Compact event log of one sequential threshold scan, sufficient
/// to replay the same scan under any *tighter* initial threshold without
/// re-running a single dominance test.
///
/// A threshold scan's dominance outcomes on a shared prefix do not depend
/// on the initial threshold — only the stopping point does (the running
/// threshold under `t' <= t` is `min(t', running threshold under t)` at
/// every position). So the accept/evict events of a scan executed under
/// an upper-bound threshold determine the result, scan count, final
/// threshold and op counts of the scan under any refined `t' <= t`:
/// survivors are the accepted points before the refined cut whose evictor
/// lies at or past the cut. This is what lets the engine replay one
/// unconstrained scan per (store, subspace) for every incoming threshold.
///
/// Only *accepted* offers leave a record — 8 bytes each: the scan
/// position and the index of the accepted offer that evicted it (both
/// `uint32_t`). Rejected positions leave nothing. Everything else is
/// reconstructed at replay time:
///  - `dist_U` of an accepted point from its store row;
///  - eviction counts from the evictor indices;
///  - each offer's dominance charge (the window-slot count) from the
///    accept/evict events and the compaction rule the scan ran with;
///  - seed (filter) evictions, which have no record of their own, from a
///    separate list of the accept indices that evicted a seed;
///  - block skipping from one bit per probed block (`block_rejected`).
/// The events live in one exact-size allocation.
class ScanTrace {
 public:
  /// Evictor index of records alive at trace end.
  static constexpr uint32_t kNeverEvicted = UINT32_MAX;

  /// Scalar parameters of the recorded scan.
  struct Header {
    /// Initial threshold the recorded scan ran under; replays require a
    /// threshold no larger than this.
    double threshold_in = std::numeric_limits<double>::infinity();
    /// Query subspace mask (replays recompute `dist_U` on it).
    uint32_t mask = 0;
    /// Positions the recorded scan consumed.
    uint32_t scanned = 0;
    /// Filter seeds the window started with.
    uint32_t seeds = 0;
    /// True when the recorded scan ran with block skipping; replays then
    /// reconstruct the skip charges (summary probes, skipped blocks,
    /// reduced scan steps and page reads) from `block_rejected`.
    bool block_skip = false;
    /// The scan's compaction policy (see `ThresholdScanOptions`).
    size_t compact_min_window = 64;
    double compact_live_fraction = 0.5;
  };

  /// One accepted offer.
  struct Accept {
    uint32_t position = 0;
    /// Index (into the accepts) of the offer that evicted this one, or
    /// `kNeverEvicted`.
    uint32_t evictor = kNeverEvicted;
  };

  /// Empty trace of a scan that consumed nothing.
  ScanTrace() = default;
  /// Packs the events into one exact-size allocation. `seed_evictors`
  /// holds, per evicted seed, the accept index that evicted it, in
  /// ascending order; `block_rejected` has one entry per probed block
  /// (block `b` covers positions [8b, 8b+8)), 1 when its summary probe
  /// found a dominating window entry.
  ScanTrace(const Header& header, const std::vector<Accept>& accepts,
            const std::vector<uint32_t>& seed_evictors,
            const std::vector<char>& block_rejected);

  ScanTrace(ScanTrace&&) = default;
  ScanTrace& operator=(ScanTrace&&) = default;

  const Header& header() const { return header_; }
  double threshold_in() const { return header_.threshold_in; }
  Subspace subspace() const { return Subspace(header_.mask); }
  bool block_skip() const { return header_.block_skip; }
  /// Positions the recorded scan consumed.
  size_t size() const { return header_.scanned; }

  size_t num_accepts() const { return num_accepts_; }
  Accept accept(size_t k) const {
    return {words_[2 * k], words_[2 * k + 1]};
  }
  size_t num_seed_evictions() const { return num_seed_evictions_; }
  uint32_t seed_evictor(size_t s) const {
    return words_[2 * num_accepts_ + s];
  }
  size_t num_probed_blocks() const { return num_probed_blocks_; }
  bool block_rejected(size_t b) const {
    const uint32_t word = words_[2 * num_accepts_ + num_seed_evictions_ +
                                 b / 32];
    return ((word >> (b % 32)) & 1u) != 0;
  }

  /// Bytes this trace occupies (object plus event allocation) — what the
  /// bounded `SubspaceScanTraceCache` accounts per entry.
  size_t ByteSize() const {
    return sizeof(ScanTrace) + num_words() * sizeof(uint32_t);
  }

 private:
  size_t num_words() const {
    return 2 * num_accepts_ + num_seed_evictions_ +
           (num_probed_blocks_ + 31) / 32;
  }

  Header header_;
  uint32_t num_accepts_ = 0;
  uint32_t num_seed_evictions_ = 0;
  uint32_t num_probed_blocks_ = 0;
  /// Accepts (position, evictor pairs), then seed evictors, then the
  /// probed-block bitmap.
  std::unique_ptr<uint32_t[]> words_;
};

/// \brief Incrementally maintains a (extended) subspace skyline under
/// ascending-`f` insertion order. The shared core of Algorithms 1 and 2.
///
/// Offer points in non-decreasing `f(p)` order; the accumulator discards
/// dominated points, evicts points the newcomer dominates, and tracks the
/// pruning threshold `min dist_U` (Observation 5). Once
/// `f(p) > threshold()` no future point can survive and the caller may
/// stop scanning.
///
/// The running skyline is held in a linear window of u-projections in
/// 8-wide SIMD blocks (`BlockedProjection`), probed by one batched kernel
/// call per offer. The paper (§5.2.1) indexes this window in a main-memory
/// R-tree instead; the blocked linear window measured faster (see
/// EXPERIMENTS.md §A1), so it is the only window.
class SkylineAccumulator {
 public:
  /// `u` is the query subspace over points of dimensionality `dims`.
  SkylineAccumulator(int dims, Subspace u, const ThresholdScanOptions& options);

  SkylineAccumulator(const SkylineAccumulator&) = delete;
  SkylineAccumulator& operator=(const SkylineAccumulator&) = delete;

  /// Considers point `p` (full-dimensional row) with the given id and
  /// `f`-value. Returns true if `p` entered the running skyline.
  /// Pre: `f` values are offered in non-decreasing order.
  bool Offer(const double* p, PointId id, double f) {
    return OfferTagged(p, id, f, kNoTag, nullptr);
  }

  /// Tag value of points offered without one and of `SeedWindow` seeds.
  static constexpr uint64_t kNoTag = static_cast<uint64_t>(-1);

  /// `Offer` that additionally attaches a caller tag to the point and,
  /// when `evicted_tags` is non-null, appends the tags of the window
  /// entries this offer evicted (`kNoTag` for seeds). Used by the traced
  /// scan to record which accepted offer evicted which: the tag is the
  /// offer's accept index.
  bool OfferTagged(const double* p, PointId id, double f, uint64_t tag,
                   std::vector<uint64_t>* evicted_tags);

  /// Current pruning threshold: points with `f > threshold()` can never
  /// enter the skyline (Observation 5); with `f == threshold()` ties are
  /// still possible, so callers scan while `f <= threshold()`.
  double threshold() const { return threshold_; }

  /// Zone-map probe for block-skipping scans: true when some live window
  /// entry dominates `min_row` (a store block's per-dimension min-vector,
  /// full dimensionality) on this accumulator's subspace. Dominating the
  /// min-vector implies dominating every point of the block — the strict
  /// coordinate carries over through `w[j] < m[j] <= p[j]` — so a true
  /// probe proves the whole block would be rejected point by point.
  /// Op-free by design: callers charge `summary_tests` themselves so the
  /// accumulator's `ops()` stay pure window-evolution counts, which trace
  /// replays reconstruct from accept/evict events alone.
  bool WindowRejectsSummary(const double* min_row) const;

  /// Number of points currently in the running skyline.
  size_t alive() const { return alive_; }

  /// Number of window slots (alive + not-yet-compacted evicted entries);
  /// bounded by the compaction policy in `ThresholdScanOptions`.
  size_t window_size() const { return window_points_.size(); }

  /// Logical operations performed by all offers so far. Dominance tests
  /// count the logical window slots each offer within the threshold is
  /// tested against (not kernel-internal work), independent of kernel
  /// dispatch — and charged the same when the host settles an offer
  /// without running the kernel (an exact pre-rejection: the offer's
  /// u-minimum lies above the dist_U of an accepted offer, so a live
  /// window entry provably dominates it).
  const OpCounts& ops() const { return ops_; }

  /// Extracts the result, sorted ascending by `f` (insertion order with
  /// evicted points dropped and seed points excluded). The accumulator is
  /// left empty.
  ResultList TakeResult();

  /// Pre-populates the window with already-known points that reject (and
  /// may be evicted by) later offers but never appear in `TakeResult()`.
  /// Seeds need not be mutually non-dominated and need not precede future
  /// offers in `f` order — a dominated seed is an inert extra pruner, and
  /// no decision depends on a seed's `f` value (broadcast filter sets
  /// deliberately violate the f-order property).
  /// Only valid on an empty accumulator; does not tighten `threshold()`
  /// (fold the seed's threshold into `options.initial_threshold` instead).
  void SeedWindow(const ResultList& seed);

 private:
  void EvictDominatedLinear(const double* proj,
                            std::vector<uint64_t>* evicted_tags);

  /// Drops evicted window slots once fewer than `compact_live_fraction_`
  /// of the entries are alive (and the window holds at least
  /// `compact_min_window_`), so the batched dominance tests and
  /// `window_proj_` stay proportional to the running skyline instead of
  /// every point ever offered.
  void MaybeCompact();

  int dims_;
  Subspace u_;
  bool strict_;
  size_t compact_min_window_;
  double compact_live_fraction_;
  bool full_space_;  // u covers all `dims_` dimensions
  double threshold_;
  // min dist_U over accepted offers only — never the initial threshold
  // (set by another node's point, which is not in this window) nor
  // seeds. Any offer whose u-minimum exceeds it is dominated by a live
  // window entry, which lets `OfferTagged` settle it without the kernel.
  double local_threshold_ = std::numeric_limits<double>::infinity();

  // Candidate window: points appended in offer order; `alive_flags_[i]`
  // clears when candidate i is evicted by a later dominator, and
  // `emit_flags_[i]` is 0 for SeedWindow() entries, which participate in
  // dominance tests but are not part of the result.
  PointSet window_points_;
  std::vector<double> window_f_;
  std::vector<char> alive_flags_;
  std::vector<char> emit_flags_;
  std::vector<uint64_t> window_tags_;  // caller tags; kNoTag when untagged
  // u-projected coords, blocked SoA; evicted slots are Kill()ed to +inf so
  // the batched "does any window point dominate q" kernel needs no
  // liveness mask.
  BlockedProjection window_proj_;
  size_t alive_ = 0;

  std::vector<uint8_t> scratch_masks_;  // per-block eviction bit masks
  OpCounts ops_;
};

/// \brief Paper Algorithm 1: local subspace skyline computation over a
/// store sorted by `f(p)` — resident or paged (see `StoreView`).
///
/// Scans `input` in ascending `f` order and stops as soon as
/// `f(p) > threshold` (exactness note: the paper scans while
/// `f(p) < threshold`; we include ties to stay exact on inputs with equal
/// coordinates). Returns the (extended, if `options.ext`) skyline of the
/// input restricted to subspace `u`, sorted by `f`. When `stats` is
/// requested, `stats->ops` additionally charges the logical store pages
/// spanning the examined prefix (`ChargeScanPages`), identically for
/// paged and resident stores of the same page geometry.
ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options = {},
                         ThresholdScanStats* stats = nullptr);
inline ResultList SortedSkyline(const ResultList& input, Subspace u,
                                const ThresholdScanOptions& options = {},
                                ThresholdScanStats* stats = nullptr) {
  return SortedSkyline(StoreView(&input), u, options, stats);
}

/// \brief Algorithm 1 with event recording: identical result, threshold
/// and scan count as `SortedSkyline(input, u, options)`, but additionally
/// fills `trace` so the scan can later be replayed under any tighter
/// initial threshold via `ReplayScanTrace`.
ResultList TracedSortedSkyline(const StoreView& input, Subspace u,
                               const ThresholdScanOptions& options,
                               ThresholdScanStats* stats, ScanTrace* trace);
inline ResultList TracedSortedSkyline(const ResultList& input, Subspace u,
                                      const ThresholdScanOptions& options,
                                      ThresholdScanStats* stats,
                                      ScanTrace* trace) {
  return TracedSortedSkyline(StoreView(&input), u, options, stats, trace);
}

/// \brief Replays a recorded scan of `input` under `threshold_in`, which
/// must satisfy `threshold_in <= trace.threshold_in()`. Returns exactly
/// what `SortedSkyline(input, u, options)` with that initial threshold
/// would — same points in the same order, same `stats->scanned`,
/// `stats->final_threshold` and op counts (including the page charges of
/// the equivalent direct scan) — with no dominance tests. The cut is
/// found by binary search over `f` between accepted positions; only the
/// accepted rows before the cut and the cut's own block are read. On a
/// paged store the search runs on the summary's `block_f_max`, so the
/// replay pins just those rows' pages and the cut block, without
/// read-ahead. `input` must be the store the trace was recorded over.
ResultList ReplayScanTrace(const StoreView& input, const ScanTrace& trace,
                           double threshold_in,
                           ThresholdScanStats* stats = nullptr);
inline ResultList ReplayScanTrace(const ResultList& input,
                                  const ScanTrace& trace, double threshold_in,
                                  ThresholdScanStats* stats = nullptr) {
  return ReplayScanTrace(StoreView(&input), trace, threshold_in, stats);
}

}  // namespace skypeer

#endif  // SKYPEER_ALGO_SORTED_SKYLINE_H_
