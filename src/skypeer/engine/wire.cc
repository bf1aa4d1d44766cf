#include "skypeer/engine/wire.h"

#include <cstring>

#include "skypeer/common/macros.h"

namespace skypeer {

namespace {

constexpr uint32_t kMagic = 0x534b5950;  // "SKYP"

// Header: magic (4) + subspace mask (4) + point count (8).
constexpr size_t kHeaderBytes = 16;

template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
bool Get(const uint8_t* data, size_t size, size_t* offset, T* value) {
  if (*offset + sizeof(T) > size) {
    return false;
  }
  std::memcpy(value, data + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// Per point: k projected coordinates + f + id, 8 bytes each.
size_t PointBytes(int k) { return (static_cast<size_t>(k) + 1) * 8 + 8; }

}  // namespace

size_t EncodedListBytes(int k, size_t n) {
  return kHeaderBytes + n * PointBytes(k);
}

std::vector<uint8_t> EncodeResultList(const ResultList& list, Subspace u) {
  SKYPEER_CHECK(!u.empty());
  SKYPEER_CHECK(list.f.size() == list.points.size());
  const int k = u.Count();
  std::vector<uint8_t> out;
  out.reserve(EncodedListBytes(k, list.size()));
  Put<uint32_t>(&out, kMagic);
  Put<uint32_t>(&out, u.mask());
  Put<uint64_t>(&out, list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    const double* row = list.points[i];
    for (int dim : u) {
      Put<double>(&out, row[dim]);
    }
    Put<double>(&out, list.f[i]);
    Put<uint64_t>(&out, list.points.id(i));
  }
  SKYPEER_DCHECK(out.size() == EncodedListBytes(k, list.size()));
  return out;
}

Status DecodeResultList(const uint8_t* data, size_t size, WireList* out) {
  SKYPEER_CHECK(out != nullptr);
  size_t offset = 0;
  uint32_t magic = 0;
  if (!Get(data, size, &offset, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic");
  }
  uint32_t mask = 0;
  if (!Get(data, size, &offset, &mask) || mask == 0) {
    return Status::InvalidArgument("bad subspace mask");
  }
  uint64_t count = 0;
  if (!Get(data, size, &offset, &count)) {
    return Status::InvalidArgument("truncated header");
  }
  const Subspace u(mask);
  const int k = u.Count();
  // Bound the count by the bytes present before any arithmetic on it: a
  // forged count can wrap `EncodedListBytes` around to `size`.
  if (count > (size - kHeaderBytes) / PointBytes(k) ||
      size != EncodedListBytes(k, count)) {
    return Status::InvalidArgument("size does not match header");
  }
  out->subspace = u;
  out->coords.clear();
  out->coords.reserve(count * k);
  out->f.clear();
  out->f.reserve(count);
  out->ids.clear();
  out->ids.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    for (int c = 0; c < k; ++c) {
      double value = 0.0;
      if (!Get(data, size, &offset, &value)) {
        return Status::InvalidArgument("truncated coordinates");
      }
      out->coords.push_back(value);
    }
    double f = 0.0;
    uint64_t id = 0;
    if (!Get(data, size, &offset, &f) || !Get(data, size, &offset, &id)) {
      return Status::InvalidArgument("truncated point");
    }
    out->f.push_back(f);
    out->ids.push_back(id);
  }
  return Status::OK();
}

}  // namespace skypeer
