#include "snapshot/page_cache.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace gsr::snapshot {

PageCache::PageCache(std::shared_ptr<PagedFile> file, const Options& options)
    : file_(std::move(file)), page_size_(options.page_size) {
  GSR_CHECK(file_ != nullptr);
  GSR_CHECK(page_size_ > 0 && (page_size_ & (page_size_ - 1)) == 0);
  const uint64_t file_pages =
      (file_->size() + page_size_ - 1) / page_size_;
  size_t frames = std::max<size_t>(options.budget_bytes / page_size_,
                                   kMinFrames);
  // Never hold more frames than the file has pages.
  frames = std::min<uint64_t>(frames, std::max<uint64_t>(file_pages, 1));
  arena_ = std::make_unique<std::byte[]>(frames * page_size_);
  frames_ = std::vector<Frame>(frames);
  page_to_frame_ = std::vector<std::atomic<uint32_t>>(file_pages);
}

PageCache::~PageCache() {
#if !defined(NDEBUG)
  for (const Frame& frame : frames_) {
    GSR_DCHECK(frame.pins.load() == 0);
  }
#endif
}

bool PageCache::Unpublish(Frame& frame) {
  // Dekker with the hit path, which pins and then re-reads the tag: with
  // both sides seq_cst, either the hit sees tag 0 and backs off, or this
  // load sees its pin.
  const uint64_t tag = frame.tag.exchange(0, std::memory_order_seq_cst);
  if (frame.pins.load(std::memory_order_seq_cst) == 0) return true;
  frame.tag.store(tag, std::memory_order_release);
  return false;
}

int PageCache::FindVictim() {
  // Two sweeps: the first clears reference bits (second chance), the
  // second takes the first unreferenced, unpinned, settled frame. 2N
  // steps bound the walk; if nothing is evictable by then, every frame
  // is pinned or loading.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& frame = frames_[hand_];
    const size_t idx = hand_;
    hand_ = (hand_ + 1) % n;
    if (frame.loading || frame.pins.load(std::memory_order_relaxed) > 0) {
      continue;
    }
    if (frame.valid && frame.ref.load(std::memory_order_relaxed)) {
      frame.ref.store(false, std::memory_order_relaxed);
      continue;
    }
    if (!Unpublish(frame)) continue;
    // A hit may have pinned since Unpublish; it will see tag 0 and undo
    // its pin, so add ours rather than overwrite the count.
    frame.pins.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int>(idx);
  }
  return -1;
}

const std::byte* PageCache::PinPage(uint64_t page_no, void** handle) {
  // Bounds first: page_no * page_size_ could wrap for huge page_no.
  if (page_no >= page_to_frame_.size()) return nullptr;

  // Hit path, no lock: pin the mapped frame, then validate its tag. The
  // table entry may be stale; the tag check is what proves the mapping.
  const uint32_t slot = page_to_frame_[page_no].load(std::memory_order_relaxed);
  if (slot != 0) {
    Frame& frame = frames_[slot - 1];
    frame.pins.fetch_add(1, std::memory_order_seq_cst);
    if (frame.tag.load(std::memory_order_seq_cst) == page_no + 1) {
      if (!frame.ref.load(std::memory_order_relaxed)) {
        frame.ref.store(true, std::memory_order_relaxed);
      }
      frame.hits.fetch_add(1, std::memory_order_relaxed);
      *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(slot));
      return FrameData(slot - 1);
    }
    // Evicted, loading or mid-eviction-check: back off to the lock.
    frame.pins.fetch_sub(1, std::memory_order_release);
  }
  return PinPageLocked(page_no, handle);
}

const std::byte* PageCache::PinPageLocked(uint64_t page_no, void** handle) {
  const uint64_t page_off = page_no * page_size_;
  const size_t load_len = static_cast<size_t>(
      std::min<uint64_t>(page_size_, file_->size() - page_off));

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const uint32_t slot =
        page_to_frame_[page_no].load(std::memory_order_relaxed);
    if (slot != 0) {
      Frame& frame = frames_[slot - 1];
      if (frame.loading) {
        // Another thread is filling this frame; its completion (or
        // failure) is signalled under the lock.
        load_done_.wait(lock);
        continue;
      }
      frame.pins.fetch_add(1, std::memory_order_relaxed);
      frame.ref.store(true, std::memory_order_relaxed);
      frame.hits.fetch_add(1, std::memory_order_relaxed);
      *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(slot));
      return FrameData(slot - 1);
    }

    const int victim = FindVictim();
    if (victim < 0) return nullptr;  // All pinned/loading: caller bypasses.
    Frame& frame = frames_[victim];
    if (frame.valid) {
      page_to_frame_[frame.page_no].store(0, std::memory_order_relaxed);
      ++evictions_;
    }
    frame.page_no = page_no;
    frame.valid = false;
    frame.loading = true;
    frame.ref.store(true, std::memory_order_relaxed);
    page_to_frame_[page_no].store(static_cast<uint32_t>(victim) + 1,
                                  std::memory_order_relaxed);
    ++misses_;

    Status status;
    {
      // The pread runs unlocked; the `loading` flag keeps every other
      // thread (including the eviction sweep) off this frame meanwhile,
      // and tag 0 turns lock-free hits away.
      lock.unlock();
      std::byte* data = FrameData(static_cast<size_t>(victim));
      status = file_->ReadAt(page_off, load_len, data);
      if (status.ok() && load_len < page_size_) {
        std::memset(data + load_len, 0, page_size_ - load_len);
      }
      lock.lock();
    }
    frame.loading = false;
    if (!status.ok()) {
      frame.pins.fetch_sub(1, std::memory_order_release);
      page_to_frame_[page_no].store(0, std::memory_order_relaxed);
      load_done_.notify_all();
      return nullptr;
    }
    frame.valid = true;
    frame.tag.store(page_no + 1, std::memory_order_release);
    load_done_.notify_all();
    *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(victim) + 1);
    return FrameData(static_cast<size_t>(victim));
  }
}

void PageCache::UnpinPage(void* handle) {
  const size_t idx = reinterpret_cast<uintptr_t>(handle) - 1;
  GSR_DCHECK(idx < frames_.size());
  const uint32_t prev =
      frames_[idx].pins.fetch_sub(1, std::memory_order_release);
  GSR_DCHECK(prev > 0);
  (void)prev;
}

Status PageCache::Read(uint64_t offset, size_t len, void* out) {
  std::byte* dst = static_cast<std::byte*>(out);
  while (len > 0) {
    const uint64_t page_no = offset / page_size_;
    const size_t in_page = static_cast<size_t>(offset % page_size_);
    const size_t take = std::min(len, page_size_ - in_page);
    void* handle = nullptr;
    if (const std::byte* page = PinPage(page_no, &handle)) {
      std::memcpy(dst, page + in_page, take);
      UnpinPage(handle);
    } else {
      // No frame to spare (or the page failed to load): serve this piece
      // straight from the file so progress never depends on evictability.
      GSR_RETURN_IF_ERROR(file_->ReadAt(offset, take, dst));
      bypass_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    dst += take;
    offset += take;
    len -= take;
  }
  return Status::Ok();
}

void PageCache::Prefetch(uint64_t offset, size_t len) {
  // Kernel-level readahead only: the data lands in the OS page cache and
  // the subsequent misses become cheap copies instead of device waits.
  // Filling our own frames here would evict hot pages for speculative
  // ones, which is exactly backwards under a tight budget.
  if (offset >= file_->size() || len == 0) return;
  file_->Advise(offset, len);
}

PageCache::Stats PageCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  for (const Frame& frame : frames_) {
    stats.hits += frame.hits.load(std::memory_order_relaxed);
  }
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.bypass_reads = bypass_reads_.load(std::memory_order_relaxed);
  return stats;
}

void PageCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& frame : frames_) {
    frame.hits.store(0, std::memory_order_relaxed);
  }
  misses_ = 0;
  evictions_ = 0;
  bypass_reads_.store(0, std::memory_order_relaxed);
}

void PageCache::Drop() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& frame : frames_) {
    if (frame.loading || frame.pins.load(std::memory_order_relaxed) > 0) {
      continue;
    }
    if (frame.valid) {
      if (!Unpublish(frame)) continue;  // A hit pinned it meanwhile.
      page_to_frame_[frame.page_no].store(0, std::memory_order_relaxed);
    }
    frame.valid = false;
    frame.ref.store(false, std::memory_order_relaxed);
  }
  hand_ = 0;
}

}  // namespace gsr::snapshot
