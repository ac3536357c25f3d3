#ifndef GSR_SNAPSHOT_PAGE_CACHE_H_
#define GSR_SNAPSHOT_PAGE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/paged_array.h"
#include "common/status.h"
#include "snapshot/format.h"
#include "snapshot/paged_file.h"

namespace gsr::snapshot {

/// A fixed-budget page cache over a PagedFile — the PagedSource behind
/// LoadMode::kPaged. Unlike mmap, residency is explicit: at most
/// `budget_bytes` of file pages are ever in memory, whatever the index
/// size, and every hit/miss/eviction is counted.
///
/// Replacement is clock (second-chance): frames sit in one arena, a hand
/// sweeps them circularly, a referenced bit grants one extra sweep of
/// life, and pinned or mid-load frames are skipped. Pins are held by
/// PagedArrayCursor for the duration of one chunk access (at most one
/// page per live cursor), so descents read node chunks zero-copy out of
/// the arena.
///
/// When every frame is pinned or loading, PinPage returns nullptr and
/// the caller falls back to Read(), which serves the stragglers with a
/// direct pread (counted as a bypass). That keeps the cache strictly
/// non-blocking on capacity: no pin ever waits on another pin, so
/// concurrent descents cannot deadlock however small the budget.
///
/// Thread safety: a hit takes no lock. A direct page table maps each
/// file page to its frame, and a hit pins that frame, then checks the
/// frame's published tag still names the page (pin-then-validate); on a
/// mismatch it drops the pin and takes the locked path. Misses, eviction,
/// Drop and the stats take `mu_`. An evictor clears a frame's tag and
/// only then reads its pin count (both seq_cst), so a racing hit either
/// sees the cleared tag or is seen as a pin, and a pinned frame is never
/// re-used. A frame's tag is published (release) only after its pread
/// has filled it.
///
/// Memory: the page table costs 4 bytes per file page (16 KiB for a
/// 16 MiB snapshot at 4 KiB pages) on top of the frame budget.
class PageCache final : public PagedSource {
 public:
  struct Options {
    /// Cache budget in bytes; rounded down to whole pages and clamped to
    /// at least kMinFrames pages so tiny budgets still make progress.
    size_t budget_bytes = 64u << 20;
    size_t page_size = kPageAlignment;
  };

  /// Counter snapshot, drained like query counters.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       // Frame loads (each implies one page pread).
    uint64_t evictions = 0;    // Valid frames recycled for another page.
    uint64_t bypass_reads = 0; // Direct preads when no frame was available.
  };

  static constexpr size_t kMinFrames = 4;

  PageCache(std::shared_ptr<PagedFile> file, const Options& options);
  ~PageCache() override;

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // PagedSource implementation.
  size_t page_size() const override { return page_size_; }
  Status Read(uint64_t offset, size_t len, void* out) override;
  const std::byte* PinPage(uint64_t page_no, void** handle) override;
  void UnpinPage(void* handle) override;
  void Prefetch(uint64_t offset, size_t len) override;

  size_t num_frames() const { return frames_.size(); }
  size_t budget_bytes() const { return frames_.size() * page_size_; }
  uint64_t file_size() const { return file_->size(); }

  Stats GetStats() const;
  void ResetStats();

  /// Invalidates every unpinned frame — the cold-start reset for
  /// benchmarks. (Page-cache state in the KERNEL is separate; cold-page
  /// benchmarks drop that too, via their own fadvise(DONTNEED) pass.)
  void Drop();

 private:
  /// One cache line per frame, so concurrent hits on different frames
  /// do not share a line.
  struct alignas(64) Frame {
    // Lock-free side, read and written by hits.
    std::atomic<uint64_t> tag{0};   // page_no + 1 once contents are
                                    // published, 0 otherwise.
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> ref{false};   // Second-chance bit.
    std::atomic<uint64_t> hits{0};
    // Guarded by `mu_`.
    uint64_t page_no = 0;
    bool valid = false;    // Contents match page_no.
    bool loading = false;  // A thread is mid-pread into this frame.
  };

  std::byte* FrameData(size_t idx) {
    return arena_.get() + idx * page_size_;
  }

  /// The locked path: waits out a load in flight, or loads the page into
  /// a victim frame. Returns nullptr when every frame is pinned/loading
  /// or the pread fails.
  const std::byte* PinPageLocked(uint64_t page_no, void** handle);

  /// Clock sweep for a reusable frame; -1 when all are pinned/loading.
  /// The frame returned is unpublished (tag 0) and carries the caller's
  /// pin. Caller holds `mu_`.
  int FindVictim();

  /// Clears `frame`'s tag unless a hit holds a pin on it; restores the
  /// tag and returns false if one does. Caller holds `mu_`.
  static bool Unpublish(Frame& frame);

  const std::shared_ptr<PagedFile> file_;
  const size_t page_size_;

  std::unique_ptr<std::byte[]> arena_;
  std::vector<Frame> frames_;  // Sized once; atomics never move.
  /// Direct page table: frame index + 1 for each file page, 0 when the
  /// page has no frame. Written only under `mu_`.
  std::vector<std::atomic<uint32_t>> page_to_frame_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  size_t hand_ = 0;

  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::atomic<uint64_t> bypass_reads_{0};
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_PAGE_CACHE_H_
