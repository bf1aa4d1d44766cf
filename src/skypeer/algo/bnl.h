#ifndef SKYPEER_ALGO_BNL_H_
#define SKYPEER_ALGO_BNL_H_

#include "skypeer/common/op_counts.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// \brief Block-Nested-Loops skyline (Börzsönyi et al., ICDE'01), the
/// classic baseline: every point is compared against a window of current
/// candidates.
///
/// Since the library is main-memory, the window is unbounded (a single
/// "block"). It holds row copies plus their u-projections in 8-wide SIMD
/// blocks (`BlockedProjection`), tested with one forward and at most one
/// reverse batched kernel call per point. Returns the skyline of `input`
/// on subspace `u`, in input order; with `ext` the extended skyline
/// (strict dominance) instead. When `ops` is non-null the dominance tests
/// of the classic per-pair loop — entry-dominates-point, then
/// point-dominates-entry, for each window entry up to the first dominator
/// — are added to `ops->dominance_tests` (logical counts, identical for
/// every kernel) and the points consumed to `ops->scan_steps`.
PointSet BnlSkyline(const PointSet& input, Subspace u, bool ext = false,
                    OpCounts* ops = nullptr);

/// \brief `BnlSkyline` over a store view (resident or paged).
///
/// A paged store streams through the cursor exactly once; result order
/// and dominance-test counts are identical to `BnlSkyline` over the
/// materialized store. `ops` additionally charges the logical pages of
/// the full-store scan (`ChargeScanPages`) — identically for both store
/// modes.
PointSet BnlSkylineView(const StoreView& input, Subspace u, bool ext = false,
                        OpCounts* ops = nullptr);

}  // namespace skypeer

#endif  // SKYPEER_ALGO_BNL_H_
