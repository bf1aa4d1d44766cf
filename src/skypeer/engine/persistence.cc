#include "skypeer/engine/persistence.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "skypeer/engine/wire.h"

namespace skypeer {

namespace {

constexpr uint32_t kSnapshotMagic = 0x534b5053;  // "SKPS"
constexpr uint32_t kSnapshotVersion = 1;

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) {
      std::fclose(file);
    }
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU32(std::FILE* file, uint32_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}
bool WriteU64(std::FILE* file, uint64_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}
bool ReadU32(std::FILE* file, uint32_t* value) {
  return std::fread(value, sizeof(*value), 1, file) == 1;
}
bool ReadU64(std::FILE* file, uint64_t* value) {
  return std::fread(value, sizeof(*value), 1, file) == 1;
}

/// Bytes between the read position of `file` and its end; false when the
/// file is not seekable.
bool BytesLeft(std::FILE* file, uint64_t* left) {
  const long position = std::ftell(file);
  if (position < 0 || std::fseek(file, 0, SEEK_END) != 0) {
    return false;
  }
  const long end = std::ftell(file);
  if (end < position || std::fseek(file, position, SEEK_SET) != 0) {
    return false;
  }
  *left = static_cast<uint64_t>(end - position);
  return true;
}

}  // namespace

Status SaveStores(const SkypeerNetwork& network, const std::string& path) {
  if (!network.preprocessed()) {
    return Status::FailedPrecondition("network is not preprocessed");
  }
  FileHandle file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  const Subspace full = Subspace::FullSpace(network.dims());
  if (!WriteU32(file.get(), kSnapshotMagic) ||
      !WriteU32(file.get(), kSnapshotVersion) ||
      !WriteU32(file.get(), static_cast<uint32_t>(network.dims())) ||
      !WriteU32(file.get(),
                static_cast<uint32_t>(network.num_super_peers()))) {
    return Status::Internal("write failed: " + path);
  }
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    const std::vector<uint8_t> encoded =
        EncodeResultList(network.super_peer(sp).MaterializeStore(), full);
    if (!WriteU64(file.get(), encoded.size()) ||
        (!encoded.empty() &&
         std::fwrite(encoded.data(), 1, encoded.size(), file.get()) !=
             encoded.size())) {
      return Status::Internal("write failed: " + path);
    }
  }
  return Status::OK();
}

Status LoadStores(SkypeerNetwork* network, const std::string& path) {
  SKYPEER_CHECK(network != nullptr);
  FileHandle file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open file: " + path);
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t dims = 0;
  uint32_t num_super_peers = 0;
  if (!ReadU32(file.get(), &magic) || magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a SKYPEER snapshot: " + path);
  }
  if (!ReadU32(file.get(), &version) || version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  if (!ReadU32(file.get(), &dims) ||
      static_cast<int>(dims) != network->dims()) {
    return Status::InvalidArgument("snapshot dimensionality mismatch");
  }
  if (!ReadU32(file.get(), &num_super_peers) ||
      static_cast<int>(num_super_peers) != network->num_super_peers()) {
    return Status::InvalidArgument("snapshot super-peer count mismatch");
  }

  std::vector<ResultList> stores;
  stores.reserve(num_super_peers);
  for (uint32_t sp = 0; sp < num_super_peers; ++sp) {
    uint64_t encoded_size = 0;
    uint64_t left = 0;
    if (!ReadU64(file.get(), &encoded_size) ||
        !BytesLeft(file.get(), &left) || encoded_size > left) {
      return Status::InvalidArgument("truncated snapshot");
    }
    std::vector<uint8_t> encoded(encoded_size);
    if (encoded_size > 0 &&
        std::fread(encoded.data(), 1, encoded_size, file.get()) !=
            encoded_size) {
      return Status::InvalidArgument("truncated snapshot");
    }
    WireList wire;
    SKYPEER_RETURN_IF_ERROR(
        DecodeResultList(encoded.data(), encoded.size(), &wire));
    if (wire.subspace != Subspace::FullSpace(network->dims())) {
      return Status::InvalidArgument("snapshot store is not full-space");
    }
    ResultList store(network->dims());
    store.points.Reserve(wire.size());
    for (size_t i = 0; i < wire.size(); ++i) {
      store.points.Append(wire.coords.data() + i * dims, wire.ids[i]);
      store.f.push_back(wire.f[i]);
    }
    SKYPEER_RETURN_IF_ERROR(ValidateStore(store, network->dims()));
    stores.push_back(std::move(store));
  }
  return network->AdoptStores(std::move(stores));
}

}  // namespace skypeer
