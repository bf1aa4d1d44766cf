#ifndef SKYPEER_ALGO_SORTED_SKYLINE_H_
#define SKYPEER_ALGO_SORTED_SKYLINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
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

/// \brief Recorded event log of one sequential threshold scan, sufficient
/// to replay the same scan under any *tighter* initial threshold without
/// re-running a single dominance test.
///
/// A threshold scan's dominance outcomes on a shared prefix do not depend
/// on the initial threshold — only the stopping point does (the running
/// threshold under `t' <= t` is `min(t', running threshold under t)` at
/// every position). So a scan executed under an upper-bound threshold,
/// recording per scanned point whether it entered the window, its
/// `dist_U` (the threshold contribution of accepted points, kept even
/// when the point is later evicted) and the scan position of its evictor,
/// determines the result, scan count and final threshold of the scan
/// under any refined `t' <= t`: survivors are the accepted points before
/// the refined cut whose evictor lies at or past the cut. This is what
/// lets the engine scan speculatively under the initiator's fixed
/// threshold and reconcile exactly when the refined threshold arrives.
struct ScanTrace {
  /// `kNeverEvicted` in `evicted_at` marks points alive at trace end.
  static constexpr size_t kNeverEvicted = static_cast<size_t>(-1);

  /// Initial threshold the recorded scan ran under; replays require a
  /// threshold no larger than this.
  double threshold_in = std::numeric_limits<double>::infinity();
  /// Per scanned position: 1 if the point entered the running skyline.
  std::vector<char> accepted;
  /// Per scanned position: `dist_U` of accepted points (0 otherwise).
  std::vector<double> dist_u;
  /// Per scanned position: scan position of the offer that evicted the
  /// point, or `kNeverEvicted`. Rejected points are `kNeverEvicted` too
  /// (the `accepted` flag already excludes them from replays).
  std::vector<size_t> evicted_at;
  /// Cumulative op counts of the recorded scan after each position
  /// (window-evolution ops only — scan steps are not included and are
  /// reconstructed by the replay). Because the window evolves
  /// identically on the shared prefix of any tighter-threshold scan,
  /// `cum_ops[cut - 1]` is exactly the op count a direct scan truncated
  /// at `cut` would report.
  std::vector<OpCounts> cum_ops;
  /// True when the recorded scan ran with block skipping; replays then
  /// reconstruct the skip charges (summary probes, skipped blocks,
  /// reduced scan steps and page reads) from `block_rejected` instead of
  /// charging the full prefix.
  bool block_skip = false;
  /// Per probed store block of the recorded prefix (block `b` covers
  /// positions [8b, 8b+8)): 1 when the block's summary probe found a
  /// dominating window entry, so every point of it was rejected without
  /// per-point tests. The probe outcome is threshold-independent on the
  /// shared prefix, which is what makes skip traces replayable.
  std::vector<char> block_rejected;

  size_t size() const { return accepted.size(); }

  /// Payload bytes of this trace (element sizes, not capacities) — what
  /// the bounded `SubspaceScanTraceCache` accounts per entry.
  size_t ByteSize() const {
    return sizeof(ScanTrace) + accepted.size() * sizeof(char) +
           dist_u.size() * sizeof(double) +
           evicted_at.size() * sizeof(size_t) +
           cum_ops.size() * sizeof(OpCounts) +
           block_rejected.size() * sizeof(char);
  }
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

  /// Tag value of points offered without one (and of `SeedWindow` seeds);
  /// never reported through `evicted_tags`.
  static constexpr uint64_t kNoTag = static_cast<uint64_t>(-1);

  /// `Offer` that additionally attaches a caller tag to the point and,
  /// when `evicted_tags` is non-null, appends the tags of the window
  /// entries this offer evicted. Used by the traced scan to record which
  /// scan position evicted which: the tag is the offer's scan position.
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
  /// accumulator's `ops()` (and the replayable `cum_ops` built from it)
  /// stay pure window-evolution counts.
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
/// must satisfy `threshold_in <= trace.threshold_in`. Returns exactly what
/// `SortedSkyline(input, u, {.initial_threshold = threshold_in})` would
/// — same points in the same order, same `stats->scanned`,
/// `stats->final_threshold` and op counts (including the page charges of
/// the equivalent direct scan) — in O(recorded scan length) with no
/// dominance tests. `input` must be the store the trace was recorded over.
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
