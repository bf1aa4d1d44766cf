#ifndef SKYPEER_COMMON_OP_COUNTS_H_
#define SKYPEER_COMMON_OP_COUNTS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace skypeer {

/// \brief Machine-independent operation counts of a skyline computation.
///
/// Every algorithmic layer (dominance kernels' call sites, f-sorted
/// threshold scans, progressive merging, wire serialization) reports its
/// work as counts of logical operations.
/// Counts are *logical*: a batched dominance test over a window of `n`
/// candidates counts `n` dominance tests regardless of whether the
/// scalar or the SIMD kernel executed it, so counts are bit-identical
/// across kernel dispatch, thread counts and machines. A `CostModel`
/// turns counts into deterministic virtual CPU seconds.
struct OpCounts {
  /// Point-vs-point (or point-vs-window-entry) dominance tests.
  uint64_t dominance_tests = 0;
  /// Points consumed from an f-sorted list during a threshold scan.
  uint64_t scan_steps = 0;
  /// Heap pops performed while merging f-sorted skyline lists.
  uint64_t merge_pulls = 0;
  /// Comparison-sort work units: n * ceil(log2 n) per sort or bulk load.
  uint64_t sort_steps = 0;
  /// Bytes serialized onto the wire (queries, replies, acks).
  uint64_t bytes_serialized = 0;
  /// Store pages read by f-sorted scans. Logical, like every other
  /// counter: a scan charges the pages spanning its examined prefix as a
  /// pure function of (scan extent, page geometry), identically whether
  /// the store is resident in memory or paged through the buffer
  /// manager — physical pool hits, prefetch timing and evictions never
  /// enter the counts (they are reported out-of-band).
  uint64_t page_reads = 0;
  /// Bytes of those page reads (page_reads * page size; whole pages).
  uint64_t page_bytes = 0;
  /// Block-summary dominance probes performed by block-skipping scans
  /// (`--block-skip`): one per 8-wide store block whose zone-map
  /// min-vector was tested against the scan window. Logical, like
  /// `page_reads`: a pure function of (summary, scan state), charged
  /// identically in both store modes.
  uint64_t summary_tests = 0;
  /// Store blocks whose points were all rejected via their summary
  /// min-vector (full or partial consumption) — each one saved up to 8
  /// per-point window tests, and a run of them can leave whole pages
  /// unread.
  uint64_t blocks_skipped = 0;

  OpCounts& operator+=(const OpCounts& other) {
    dominance_tests += other.dominance_tests;
    scan_steps += other.scan_steps;
    merge_pulls += other.merge_pulls;
    sort_steps += other.sort_steps;
    bytes_serialized += other.bytes_serialized;
    page_reads += other.page_reads;
    page_bytes += other.page_bytes;
    summary_tests += other.summary_tests;
    blocks_skipped += other.blocks_skipped;
    return *this;
  }

  friend OpCounts operator+(OpCounts a, const OpCounts& b) {
    a += b;
    return a;
  }

  friend bool operator==(const OpCounts& a, const OpCounts& b) {
    return a.dominance_tests == b.dominance_tests &&
           a.scan_steps == b.scan_steps && a.merge_pulls == b.merge_pulls &&
           a.sort_steps == b.sort_steps &&
           a.bytes_serialized == b.bytes_serialized &&
           a.page_reads == b.page_reads && a.page_bytes == b.page_bytes &&
           a.summary_tests == b.summary_tests &&
           a.blocks_skipped == b.blocks_skipped;
  }
  friend bool operator!=(const OpCounts& a, const OpCounts& b) {
    return !(a == b);
  }

  uint64_t total() const {
    return dominance_tests + scan_steps + merge_pulls + sort_steps +
           bytes_serialized + page_reads + page_bytes + summary_tests +
           blocks_skipped;
  }

  std::string ToString() const {
    return "dom=" + std::to_string(dominance_tests) +
           " scan=" + std::to_string(scan_steps) +
           " merge=" + std::to_string(merge_pulls) +
           " sort=" + std::to_string(sort_steps) +
           " bytes=" + std::to_string(bytes_serialized) +
           " pages=" + std::to_string(page_reads) +
           " pagebytes=" + std::to_string(page_bytes) +
           " sumtests=" + std::to_string(summary_tests) +
           " skipped=" + std::to_string(blocks_skipped);
  }
};

/// Work units charged for comparison-sorting `n` items: n * ceil(log2 n),
/// 0 for n <= 1.
inline uint64_t SortCost(size_t n) {
  if (n <= 1) {
    return 0;
  }
  uint64_t levels = 0;
  size_t m = n - 1;
  while (m > 0) {
    m >>= 1;
    ++levels;
  }
  return static_cast<uint64_t>(n) * levels;
}

}  // namespace skypeer

#endif  // SKYPEER_COMMON_OP_COUNTS_H_
