#ifndef SKYPEER_ALGO_RESULT_LIST_H_
#define SKYPEER_ALGO_RESULT_LIST_H_

#include <vector>

#include "skypeer/common/mapping.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/status.h"

namespace skypeer {

/// \brief A list of full-dimensional points sorted ascending by the
/// one-dimensional mapping `f(p) = min_i p[i]` (paper §5.1).
///
/// This is the exchange format of the SKYPEER pipeline: super-peers store
/// their merged extended skyline as a `ResultList`, Algorithm 1 consumes
/// and produces it, and Algorithm 2 merges several of them. Points keep
/// all `d` coordinates in memory; the network-transfer byte model (which
/// only ships the queried coordinates plus `f`) lives in the engine.
struct ResultList {
  PointSet points;
  /// `f(points[i])`, non-decreasing in `i`.
  std::vector<double> f;

  explicit ResultList(int dims) : points(dims) {}

  size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }

  /// True if `f` is parallel to `points` and non-decreasing. Test helper.
  bool IsSorted() const {
    if (f.size() != points.size()) {
      return false;
    }
    for (size_t i = 1; i < f.size(); ++i) {
      if (f[i] < f[i - 1]) {
        return false;
      }
    }
    return true;
  }
};

/// Builds a `ResultList` from an unordered point set: computes `f` over the
/// full space and sorts ascending (stable on ties for determinism).
ResultList BuildSortedByF(const PointSet& input);

/// Checks everything a super-peer store must satisfy before a scan may
/// trust it (Obs. 5 pruning silently breaks otherwise): `dims`-wide
/// points, every coordinate finite and >= 0, `f[i] == MinCoord(row)`,
/// f non-decreasing, and unique point ids. `InvalidArgument` names the
/// first violation.
Status ValidateStore(const ResultList& store, int dims);

}  // namespace skypeer

#endif  // SKYPEER_ALGO_RESULT_LIST_H_
