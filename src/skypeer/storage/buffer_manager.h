#ifndef SKYPEER_STORAGE_BUFFER_MANAGER_H_
#define SKYPEER_STORAGE_BUFFER_MANAGER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace skypeer {

class ThreadPool;

/// \brief A pinning buffer pool over a temporary page file.
///
/// Fixed number of page-sized frames; pages are pinned into frames on
/// demand and replaced with a deterministic second-chance clock sweep
/// over unpinned frames. Pages are write-once (stores are immutable once
/// built), so eviction never writes back. `Prefetch` schedules a
/// best-effort asynchronous fill on the supplied thread pool; a `Pin`
/// that catches up with a still-queued prefetch claims the frame and
/// performs the read itself, so pinners never wait on queued pool work
/// (only on reads already in flight) — that makes the pinning discipline
/// deadlock-free for any pool size.
///
/// Page ids are allocated once and never recycled (their file offsets
/// are), so a frame left over from a dropped store can never be returned
/// for a live page. All pool statistics are physical host behavior —
/// they never feed the deterministic op counts or simulated clocks.
///
/// Thread safety: all public methods are safe to call concurrently.
class BufferManager {
 public:
  struct Stats {
    uint64_t hits = 0;              ///< Pins served from a resident frame.
    uint64_t misses = 0;            ///< Pins that performed a read.
    uint64_t evictions = 0;         ///< Resident pages replaced.
    uint64_t prefetches_issued = 0; ///< Async fills scheduled.
    uint64_t prefetch_hits = 0;     ///< Pins served by a completed prefetch.
    uint64_t pages_written = 0;     ///< Build-time page writes.
  };

  /// Creates `num_frames >= 2` frames of `page_size` bytes each, backed
  /// by a fresh `std::tmpfile()`. `prefetch_pool` (may be null: prefetch
  /// disabled) must outlive the manager.
  BufferManager(size_t page_size, size_t num_frames,
                ThreadPool* prefetch_pool = nullptr);

  /// Tag selecting `ThreadPool::Global()` as the prefetch pool.
  struct GlobalPool {};

  /// As above, but prefetching on the process-global pool, resolved at
  /// every `Prefetch` call: `ThreadPool::SetGlobalConcurrency` replaces
  /// (frees) the global pool, so the manager must never hold on to it.
  BufferManager(size_t page_size, size_t num_frames, GlobalPool);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  size_t page_size() const { return page_size_; }
  size_t num_frames() const { return frames_.size(); }

  /// Allocates a fresh page id (file space is reused, ids are not).
  uint64_t AllocatePage();

  /// Writes `page_size()` bytes to `page_id`. Pages are write-once:
  /// the page must not currently be resident.
  void WritePage(uint64_t page_id, const void* bytes);

  /// Frees `page_id`'s file space and invalidates any frame holding it.
  /// The page must not be pinned.
  void DropPage(uint64_t page_id);

  /// Pins `page_id` into a frame and returns its bytes; blocks until a
  /// frame is available when all frames are pinned. Balance with
  /// `Unpin`. The pointer stays valid until the matching `Unpin`.
  const std::byte* Pin(uint64_t page_id);
  void Unpin(uint64_t page_id);

  /// Best-effort asynchronous fill of `page_id`: a no-op without a pool,
  /// when the page is already resident or queued, or when no frame is
  /// free without waiting.
  void Prefetch(uint64_t page_id);

  Stats stats() const;

 private:
  enum class FrameState : uint8_t { kEmpty, kQueued, kLoading, kReady };

  BufferManager(size_t page_size, size_t num_frames,
                ThreadPool* prefetch_pool, bool global_pool);

  struct Frame {
    uint64_t page_id = kNoPage;
    int pin_count = 0;
    bool ref = false;        // second-chance bit
    bool doomed = false;     // dropped while a read was in flight
    bool prefetched = false; // filled by prefetch, not yet pinned
    FrameState state = FrameState::kEmpty;
    std::unique_ptr<std::byte[]> data;
  };

  static constexpr uint64_t kNoPage = ~uint64_t{0};
  static constexpr size_t kNoFrame = ~size_t{0};

  /// Clock sweep for an evictable frame (empty, or ready and unpinned);
  /// `kNoFrame` when every frame is pinned or mid-read.
  size_t FindVictimLocked();
  void EvictLocked(size_t frame_index);
  void ReadAt(uint64_t offset, std::byte* out) const;
  void WriteAt(uint64_t offset, const void* bytes) const;
  /// The pool `Prefetch` submits to, or null when prefetch is disabled.
  ThreadPool* PrefetchPool() const;

  const size_t page_size_;
  ThreadPool* const pool_;
  const bool global_pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Frame> frames_;
  std::unordered_map<uint64_t, size_t> page_table_;  // page id -> frame
  std::unordered_map<uint64_t, uint64_t> offsets_;   // page id -> file offset
  std::vector<uint64_t> free_offsets_;
  uint64_t next_offset_ = 0;
  uint64_t next_page_id_ = 0;
  size_t clock_hand_ = 0;
  size_t outstanding_prefetches_ = 0;
  Stats stats_;

  std::FILE* file_ = nullptr;
  int fd_ = -1;
};

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_BUFFER_MANAGER_H_
