#include "skypeer/storage/buffer_manager.h"

#include <unistd.h>

#include <cerrno>

#include "skypeer/common/macros.h"
#include "skypeer/common/thread_pool.h"

namespace skypeer {

BufferManager::BufferManager(size_t page_size, size_t num_frames,
                             ThreadPool* prefetch_pool, bool global_pool)
    : page_size_(page_size), pool_(prefetch_pool), global_pool_(global_pool) {
  SKYPEER_CHECK(page_size_ > 0);
  SKYPEER_CHECK(num_frames >= 2);
  frames_.resize(num_frames);
  for (Frame& frame : frames_) {
    frame.data = std::make_unique<std::byte[]>(page_size_);
  }
  file_ = std::tmpfile();
  SKYPEER_CHECK(file_ != nullptr);
  fd_ = fileno(file_);
  SKYPEER_CHECK(fd_ >= 0);
}

BufferManager::BufferManager(size_t page_size, size_t num_frames,
                             ThreadPool* prefetch_pool)
    : BufferManager(page_size, num_frames, prefetch_pool, false) {}

BufferManager::BufferManager(size_t page_size, size_t num_frames, GlobalPool)
    : BufferManager(page_size, num_frames, nullptr, true) {}

ThreadPool* BufferManager::PrefetchPool() const {
  return global_pool_ ? ThreadPool::Global() : pool_;
}

BufferManager::~BufferManager() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return outstanding_prefetches_ == 0; });
  }
  std::fclose(file_);
}

uint64_t BufferManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t offset;
  if (!free_offsets_.empty()) {
    offset = free_offsets_.back();
    free_offsets_.pop_back();
  } else {
    offset = next_offset_;
    next_offset_ += page_size_;
  }
  const uint64_t id = next_page_id_++;
  offsets_.emplace(id, offset);
  return id;
}

void BufferManager::WritePage(uint64_t page_id, const void* bytes) {
  uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = offsets_.find(page_id);
    SKYPEER_CHECK(it != offsets_.end());
    SKYPEER_CHECK(page_table_.find(page_id) == page_table_.end());
    offset = it->second;
    ++stats_.pages_written;
  }
  WriteAt(offset, bytes);
}

void BufferManager::DropPage(uint64_t page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto offset_it = offsets_.find(page_id);
  SKYPEER_CHECK(offset_it != offsets_.end());
  free_offsets_.push_back(offset_it->second);
  offsets_.erase(offset_it);
  const auto frame_it = page_table_.find(page_id);
  if (frame_it == page_table_.end()) {
    return;
  }
  Frame& frame = frames_[frame_it->second];
  SKYPEER_CHECK(frame.pin_count == 0);
  if (frame.state == FrameState::kLoading) {
    // A read is writing the frame buffer; the loader clears it on
    // completion.
    frame.doomed = true;
    return;
  }
  // Queued prefetches notice the reassignment and skip themselves.
  page_table_.erase(frame_it);
  frame.page_id = kNoPage;
  frame.state = FrameState::kEmpty;
  frame.ref = false;
  frame.prefetched = false;
}

size_t BufferManager::FindVictimLocked() {
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    Frame& frame = frames_[index];
    if (frame.state == FrameState::kEmpty) {
      return index;
    }
    if (frame.pin_count > 0 || frame.state != FrameState::kReady) {
      continue;
    }
    if (frame.ref) {
      frame.ref = false;
      continue;
    }
    return index;
  }
  return kNoFrame;
}

void BufferManager::EvictLocked(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  if (frame.page_id != kNoPage) {
    page_table_.erase(frame.page_id);
    frame.page_id = kNoPage;
    ++stats_.evictions;
  }
  frame.state = FrameState::kEmpty;
  frame.ref = false;
  frame.doomed = false;
  frame.prefetched = false;
}

const std::byte* BufferManager::Pin(uint64_t page_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = page_table_.find(page_id);
    if (it != page_table_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.state == FrameState::kLoading) {
        // The read is actively running on another thread; it finishes
        // without needing this thread, so waiting cannot deadlock.
        cv_.wait(lock);
        continue;
      }
      if (frame.state == FrameState::kQueued) {
        // Claim the queued prefetch and do the read ourselves rather
        // than wait on pool scheduling.
        frame.state = FrameState::kLoading;
        frame.pin_count = 1;
        frame.ref = true;
        ++stats_.misses;
        const uint64_t offset = offsets_.at(page_id);
        lock.unlock();
        ReadAt(offset, frame.data.get());
        lock.lock();
        frame.state = FrameState::kReady;
        frame.prefetched = false;
        cv_.notify_all();
        return frame.data.get();
      }
      ++frame.pin_count;
      frame.ref = true;
      ++stats_.hits;
      if (frame.prefetched) {
        ++stats_.prefetch_hits;
        frame.prefetched = false;
      }
      return frame.data.get();
    }

    const size_t victim = FindVictimLocked();
    if (victim == kNoFrame) {
      // Every frame is pinned or mid-read; cursors release their pin
      // before requesting the next page, so capacity frees up.
      cv_.wait(lock);
      continue;
    }
    EvictLocked(victim);
    Frame& frame = frames_[victim];
    const auto offset_it = offsets_.find(page_id);
    SKYPEER_CHECK(offset_it != offsets_.end());
    frame.page_id = page_id;
    frame.pin_count = 1;
    frame.ref = true;
    frame.state = FrameState::kLoading;
    page_table_.emplace(page_id, victim);
    ++stats_.misses;
    const uint64_t offset = offset_it->second;
    lock.unlock();
    ReadAt(offset, frame.data.get());
    lock.lock();
    frame.state = FrameState::kReady;
    cv_.notify_all();
    return frame.data.get();
  }
}

void BufferManager::Unpin(uint64_t page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = page_table_.find(page_id);
  SKYPEER_CHECK(it != page_table_.end());
  Frame& frame = frames_[it->second];
  SKYPEER_CHECK(frame.pin_count > 0);
  if (--frame.pin_count == 0) {
    cv_.notify_all();
  }
}

void BufferManager::Prefetch(uint64_t page_id) {
  ThreadPool* const pool = PrefetchPool();
  if (pool == nullptr) {
    return;
  }
  size_t victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (page_table_.find(page_id) != page_table_.end()) {
      return;
    }
    if (offsets_.find(page_id) == offsets_.end()) {
      return;
    }
    victim = FindVictimLocked();
    if (victim == kNoFrame) {
      return;
    }
    EvictLocked(victim);
    Frame& frame = frames_[victim];
    frame.page_id = page_id;
    frame.ref = true;
    frame.state = FrameState::kQueued;
    frame.prefetched = true;
    page_table_.emplace(page_id, victim);
    ++stats_.prefetches_issued;
    ++outstanding_prefetches_;
  }
  pool->Submit([this, page_id, victim] {
    uint64_t offset = 0;
    bool run = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Frame& frame = frames_[victim];
      // Skip if a pinner claimed the fill or the page was dropped.
      if (frame.page_id == page_id && frame.state == FrameState::kQueued) {
        frame.state = FrameState::kLoading;
        offset = offsets_.at(page_id);
        run = true;
      }
    }
    if (run) {
      ReadAt(offset, frames_[victim].data.get());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (run) {
      Frame& frame = frames_[victim];
      frame.state = FrameState::kReady;
      if (frame.doomed) {
        page_table_.erase(frame.page_id);
        frame.page_id = kNoPage;
        frame.state = FrameState::kEmpty;
        frame.doomed = false;
        frame.prefetched = false;
      }
    }
    --outstanding_prefetches_;
    cv_.notify_all();
  });
}

BufferManager::Stats BufferManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BufferManager::ReadAt(uint64_t offset, std::byte* out) const {
  size_t done = 0;
  while (done < page_size_) {
    const ssize_t n = pread(fd_, out + done, page_size_ - done,
                            static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    SKYPEER_CHECK(n > 0);
    done += static_cast<size_t>(n);
  }
}

void BufferManager::WriteAt(uint64_t offset, const void* bytes) const {
  const std::byte* in = static_cast<const std::byte*>(bytes);
  size_t done = 0;
  while (done < page_size_) {
    const ssize_t n = pwrite(fd_, in + done, page_size_ - done,
                             static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    SKYPEER_CHECK(n > 0);
    done += static_cast<size_t>(n);
  }
}

}  // namespace skypeer
