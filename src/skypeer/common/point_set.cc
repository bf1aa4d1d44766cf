#include "skypeer/common/point_set.h"

#include <algorithm>
#include <string>
#include <vector>

namespace skypeer {

PointSet::PointSet(int dims,
                   std::initializer_list<std::initializer_list<double>> rows)
    : dims_(dims) {
  SKYPEER_CHECK(dims >= 1);
  PointId next_id = 0;
  for (const auto& row : rows) {
    SKYPEER_CHECK(static_cast<int>(row.size()) == dims);
    values_.insert(values_.end(), row.begin(), row.end());
    ids_.push_back(next_id++);
  }
}

void PointSet::AppendAll(const PointSet& other) {
  SKYPEER_CHECK(other.dims() == dims_);
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
}

void PointSet::Permute(const std::vector<size_t>& order) {
  SKYPEER_CHECK(order.size() == size());
  std::vector<double> new_values;
  new_values.reserve(values_.size());
  std::vector<PointId> new_ids;
  new_ids.reserve(ids_.size());
  for (size_t i : order) {
    SKYPEER_DCHECK(i < size());
    const double* row = (*this)[i];
    new_values.insert(new_values.end(), row, row + dims_);
    new_ids.push_back(ids_[i]);
  }
  values_ = std::move(new_values);
  ids_ = std::move(new_ids);
}

bool PointSet::ContainsId(PointId id) const {
  return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
}

std::string PointSet::ToString() const {
  std::string result;
  for (size_t i = 0; i < size(); ++i) {
    result += '#';
    result += std::to_string(ids_[i]);
    result += " (";
    const double* row = (*this)[i];
    for (int d = 0; d < dims_; ++d) {
      if (d > 0) {
        result += ", ";
      }
      result += std::to_string(row[d]);
    }
    result += ")\n";
  }
  return result;
}

}  // namespace skypeer
