#include "verify/spill_store.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ssr::verify {

std::string resolve_spill_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  if (const char* env = std::getenv("SSRING_CHECK_TMPDIR")) {
    if (*env != '\0') return env;
  }
  if (const char* env = std::getenv("TMPDIR")) {
    if (*env != '\0') return env;
  }
  return "/tmp";
}

// --- SpillFile -------------------------------------------------------------

void SpillFile::fail(const std::string& what, int err) const {
  std::string msg = "spill file " + (path_.empty() ? "<unopened>" : path_) +
                    ": " + what;
  if (err != 0) msg += ": " + std::string(std::strerror(err));
  msg += " (projected spill bytes=" + std::to_string(projected_bytes_) + ")";
  SSR_REQUIRE(false, msg);
}

void SpillFile::create(const std::string& dir, std::uint64_t projected_bytes) {
  SSR_ASSERT(fd_ < 0, "spill file already open");
  projected_bytes_ = projected_bytes;
  // The file must not outlive the run: the fd keeps the inode alive, and
  // the kernel reclaims the space the moment the run ends, however it
  // ends. O_TMPFILE creates it without a name; filesystems without
  // O_TMPFILE fall back to mkstemp + unlink, which leaves a short window
  // between the two calls.
#ifdef O_TMPFILE
  const int tmp = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (tmp >= 0) {
    fd_ = tmp;
    path_ = dir + "/<unnamed>";
    return;
  }
  if (errno != EOPNOTSUPP && errno != EISDIR) {
    path_ = dir;
    fail("cannot create spill file in tmpdir '" + dir + "'", errno);
  }
#endif
  std::string tmpl = dir + "/ssring-spill-XXXXXX";
  const int fd = ::mkstemp(tmpl.data());
  path_ = tmpl;
  if (fd < 0) fail("cannot create spill file in tmpdir '" + dir + "'", errno);
  if (::unlink(tmpl.c_str()) != 0) {
    const int err = errno;
    ::close(fd);
    fail("cannot unlink spill file", err);
  }
  fd_ = fd;
}

void SpillFile::open_path(const std::string& path,
                          std::uint64_t projected_bytes) {
  SSR_ASSERT(fd_ < 0, "spill file already open");
  projected_bytes_ = projected_bytes;
  path_ = path;
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) fail("cannot open spill file", errno);
  fd_ = fd;
}

void SpillFile::truncate(std::uint64_t bytes) {
  SSR_ASSERT(fd_ >= 0, "spill file not open");
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    fail("cannot size spill file to " + std::to_string(bytes) + " bytes",
         errno);
  }
}

void SpillFile::write_at(std::uint64_t offset, const void* data,
                         std::size_t len) {
  SSR_ASSERT(fd_ >= 0, "spill file not open");
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t wrote = ::pwrite(fd_, p, len, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail("write failed at offset " + std::to_string(offset), errno);
    }
    if (wrote == 0) fail("write stalled at offset " + std::to_string(offset), 0);
    p += wrote;
    offset += static_cast<std::uint64_t>(wrote);
    len -= static_cast<std::size_t>(wrote);
  }
}

const std::uint8_t* SpillFile::map_readonly(std::uint64_t expected_bytes) {
  SSR_ASSERT(fd_ >= 0, "spill file not open");
  SSR_ASSERT(map_ == nullptr, "spill file already mapped");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("cannot stat spill file", errno);
  if (static_cast<std::uint64_t>(st.st_size) < expected_bytes) {
    fail("spill file truncated: " + std::to_string(st.st_size) +
             " bytes on disk, " + std::to_string(expected_bytes) + " expected",
         0);
  }
  if (expected_bytes == 0) return nullptr;
  void* m = ::mmap(nullptr, expected_bytes, PROT_READ, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) fail("cannot map spill file", errno);
  map_ = static_cast<std::uint8_t*>(m);
  map_bytes_ = expected_bytes;
  ::madvise(map_, map_bytes_, MADV_SEQUENTIAL);
  return map_;
}

void SpillFile::advise_willneed(std::uint64_t offset, std::uint64_t len) const {
  if (map_ == nullptr || len == 0) return;
  // Page-align downward; madvise is advisory, so failures are ignored.
  const std::uint64_t page = 4096;
  const std::uint64_t lo = offset / page * page;
  ::madvise(map_ + lo, len + (offset - lo), MADV_WILLNEED);
}

void SpillFile::advise_dontneed(std::uint64_t offset, std::uint64_t len) const {
  if (map_ == nullptr || len == 0) return;
  const std::uint64_t page = 4096;
  const std::uint64_t lo = (offset + page - 1) / page * page;
  const std::uint64_t hi = (offset + len) / page * page;
  if (hi <= lo) return;
  ::madvise(map_ + lo, hi - lo, MADV_DONTNEED);
}

void SpillFile::close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- SpillWriteQueue -------------------------------------------------------

SpillWriteQueue::~SpillWriteQueue() { abort(); }

void SpillWriteQueue::abort() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SpillWriteQueue::start() {
  SSR_ASSERT(!thread_.joinable(), "spill write queue already started");
  stop_ = false;
  error_.clear();
  thread_ = std::thread([this] { flush_loop(); });
}

void SpillWriteQueue::flush_loop() {
  for (;;) {
    Job job{};
    bool poisoned = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      jobs_cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and queue drained
      job = jobs_.front();
      jobs_.pop_front();
      poisoned = !error_.empty();
    }
    if (!poisoned) {
      try {
        file_->write_at(job.offset, job.data, job.len);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = e.what();
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      *job.busy = false;
    }
    done_cv_.notify_all();
  }
}

void SpillWriteQueue::submit(const std::uint8_t* data, std::uint64_t offset,
                             std::size_t len, bool* busy) {
  SSR_ASSERT(thread_.joinable(), "spill write queue not started");
  {
    std::lock_guard<std::mutex> lk(mu_);
    *busy = true;
    jobs_.push_back(Job{data, offset, len, busy});
  }
  jobs_cv_.notify_one();
}

void SpillWriteQueue::wait_free(bool* busy) {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return !*busy; });
  if (!error_.empty()) {
    const std::string e = error_;
    lk.unlock();
    SSR_REQUIRE(false, e);
  }
}

void SpillWriteQueue::finish() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (!error_.empty()) {
    const std::string e = error_;
    SSR_REQUIRE(false, e);
  }
}

// --- SpillMoveStore --------------------------------------------------------

void SpillMoveStore::prepare(std::uint64_t total, const MoveRecordCodec& codec,
                             std::string dir,
                             std::uint64_t projected_file_bytes) {
  layout_.prepare(total, codec);
  dir_ = std::move(dir);
  projected_file_bytes_ = projected_file_bytes;
}

void SpillMoveStore::finalize_layout() {
  layout_.finalize();
  if (layout_.total_bytes() == 0) return;  // nothing to spill
  file_.create(dir_, projected_file_bytes_);
  file_.truncate(layout_.total_bytes());
  queue_.start();
}

void SpillMoveStore::seal_for_read(std::uint32_t window_blocks) {
  if (layout_.total_bytes() == 0) return;
  queue_.finish();
  map_ = file_.map_readonly(layout_.total_bytes());
  window_bytes_ = static_cast<std::uint64_t>(window_blocks)
                  << layout_.block_shift();
  // A record block holds up to 2^shift maximal records, so bytes-per-
  // block can exceed 2^shift; scale the window by the worst observed
  // block instead of undershooting the readahead.
  std::uint64_t worst_block = 0;
  for (std::uint64_t b = 0; b < layout_.block_count(); ++b) {
    worst_block = std::max(worst_block, layout_.block_bytes(b));
  }
  window_bytes_ = std::max(window_bytes_, window_blocks * worst_block);
  stop_prefetch_ = false;
  advised_ = 0;
  dropped_ = 0;
  progress_.store(0, std::memory_order_relaxed);
  prefetch_ = std::thread([this] { prefetch_loop(); });
}

void SpillMoveStore::prefetch_loop() {
  // Drop granularity for the trailing MADV_DONTNEED: big enough to
  // amortize the syscall, small enough that mapped RSS stays within a
  // few windows of the readahead instead of accreting the whole stream.
  constexpr std::uint64_t kDropBatch = 32ull << 20;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (stop_prefetch_) return;
    const std::uint64_t progress = progress_.load(std::memory_order_relaxed);
    const std::uint64_t target =
        std::min(layout_.total_bytes(), progress + window_bytes_);
    if (advised_ < target) {
      const std::uint64_t lo = advised_;
      advised_ = target;
      lk.unlock();
      file_.advise_willneed(lo, target - lo);
      lk.lock();
      continue;
    }
    // Streaming consumption would otherwise leave every touched page of
    // the mapping resident — on a long round that is the whole file in
    // RSS, defeating the point of spilling. Unmap pages a full window
    // behind the consumers; they stay in the page cache, so a straggler
    // worker (or the next round) just takes a minor fault.
    const std::uint64_t keep =
        progress > window_bytes_ ? progress - window_bytes_ : 0;
    if (keep > dropped_ + kDropBatch) {
      const std::uint64_t lo = dropped_;
      dropped_ = keep;
      lk.unlock();
      file_.advise_dontneed(lo, keep - lo);
      lk.lock();
      continue;
    }
    // Progress advances through a plain atomic (no notify on the hot
    // path), so poll with a short nap instead of waiting on the cv.
    cv_.wait_for(lk, std::chrono::microseconds(200));
  }
}

void SpillMoveStore::begin_round() {
  if (map_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    progress_.store(0, std::memory_order_relaxed);
    advised_ = 0;
    dropped_ = 0;
  }
  cv_.notify_all();
}

void SpillMoveStore::note_progress(std::uint64_t byte_offset) {
  std::uint64_t cur = progress_.load(std::memory_order_relaxed);
  while (cur < byte_offset &&
         !progress_.compare_exchange_weak(cur, byte_offset,
                                          std::memory_order_relaxed)) {
  }
}

void SpillMoveStore::release() {
  queue_.abort();
  if (prefetch_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_prefetch_ = true;
    }
    cv_.notify_all();
    prefetch_.join();
  }
  map_ = nullptr;
  file_.close();
  layout_.release();
}

}  // namespace ssr::verify
