#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "perf/purity.hpp"

namespace exw::par {

namespace {

thread_local bool t_in_region = false;
std::atomic<bool> g_serial{false};

int configured_threads() {
  // Read once, before any worker exists, so the mt-unsafe getenv is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* s = std::getenv("EXW_NUM_THREADS")) {
    const int n = std::atoi(s);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? checked_narrow<int>(hw) : 1;
}

// The region word: [epoch:8 | n:24 | next:32]. `next` is the first
// unclaimed body; claims add a chunk to it, so it may overshoot n by at
// most one chunk per claiming thread, which 32 bits absorb for any n
// below 2^24. The epoch makes every publish a word value no earlier
// region left behind, so a claim can always tell which region it hit.
constexpr int kNextBits = 32;
constexpr int kSizeBits = 24;
constexpr std::uint64_t kNextMask = (std::uint64_t{1} << kNextBits) - 1;
constexpr std::uint64_t kSizeMask = (std::uint64_t{1} << kSizeBits) - 1;

std::uint64_t make_word(std::uint64_t epoch, int n) {
  return (epoch << (kNextBits + kSizeBits)) |
         (static_cast<std::uint64_t>(n) << kNextBits);
}
int size_of(std::uint64_t w) {
  return static_cast<int>((w >> kNextBits) & kSizeMask);
}
std::uint64_t next_of(std::uint64_t w) { return w & kNextMask; }

// An idle worker spins this long after its last body before it parks. A
// futex park/wake round trip costs a sleeping worker tens of µs, so a
// gap shorter than that is cheaper to spin through; a longer gap is
// cheaper to sleep through, and the orchestrator never waits for a
// sleeping worker anyway (it runs unclaimed bodies itself).
constexpr auto kSpin = std::chrono::microseconds(50);

// Chunks per thread and region: enough that an uneven split (n not a
// multiple of the thread count, or a worker that joins late) still
// balances, few enough that claims stay a small share of a body.
constexpr int kChunksPerThread = 4;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::uint64_t epoch = 0;  ///< orchestrator-only
  /// The region word; the one line every claim writes.
  alignas(64) std::atomic<std::uint64_t> word{0};
  /// Bodies of the current region that have finished.
  alignas(64) std::atomic<int> done{0};
  /// Futex word parked workers sleep on; bumped on every publish.
  alignas(64) std::atomic<std::uint32_t> wake{0};
  std::atomic<int> sleepers{0};
  std::atomic<bool> stop{false};
  // Written by the orchestrator before the word is stored (release);
  // read by a worker only after a claim on that word succeeded.
  const FunctionRef* fn = nullptr;
#if EXW_PURITY_CHECKS_ENABLED
  /// Purity region open on the orchestrator when it dispatched; workers
  /// inherit it so rank-body allocations are attributed (and, in fatal
  /// mode, flagged) exactly as if they ran inline.
  perf::purity::RegionToken region;
#endif
  std::mutex error_mutex;  ///< guards the two fields below (error path)
  std::exception_ptr error;
  int error_index = INT_MAX;
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl), num_threads_(configured_threads()) {
  // EXW_SERIAL=0 (or empty) leaves the pool threaded, as CI's threaded
  // jobs expect; any other value forces serial mode.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before any worker spawns
  const char* serial = std::getenv("EXW_SERIAL");
  if (serial != nullptr && serial[0] != '\0' && std::strcmp(serial, "0") != 0) {
    g_serial.store(true, std::memory_order_relaxed);
  }
  // The orchestrator participates in every region, so spawn one fewer.
  for (int t = 0; t < num_threads_ - 1; ++t) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  impl_->stop.store(true, std::memory_order_seq_cst);
  impl_->wake.fetch_add(1, std::memory_order_seq_cst);
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) {
    w.join();
  }
  delete impl_;
}

bool ThreadPool::drain() {
  Impl& im = *impl_;
  bool ran = false;
  for (;;) {
    const std::uint64_t seen = im.word.load(std::memory_order_relaxed);
    const int n = size_of(seen);
    if (next_of(seen) >= static_cast<std::uint64_t>(n)) return ran;
    const int chunk = std::max(1, n / (kChunksPerThread * num_threads_));
    // The claim may land on a newer region than `seen`; the returned
    // word says which one, and its size bounds the chunk.
    const std::uint64_t w =
        im.word.fetch_add(static_cast<std::uint64_t>(chunk),
                          std::memory_order_acquire);
    const int size = size_of(w);
    if (next_of(w) >= static_cast<std::uint64_t>(size)) return ran;
    const int begin = static_cast<int>(next_of(w));
    const int end = std::min(begin + chunk, size);
    // Only now is the region's callable (and purity token) ours to read:
    // the orchestrator cannot publish the next region until these
    // bodies are counted done.
    const FunctionRef& fn = *im.fn;
    t_in_region = true;
    {
#if EXW_PURITY_CHECKS_ENABLED
      // No-op on the orchestrator (its region stack is already open); on
      // a pool worker this pushes the dispatching thread's region.
      perf::purity::ScopedRegionInherit inherit(im.region);
#endif
      for (RankId i{begin}; i.value() < end; ++i) {
        try {
#if EXW_CONTRACT_CHECKS_ENABLED
          contract::ScopedRankContext ctx(i);
#endif
          fn(i.value());
        } catch (...) {
          std::lock_guard<std::mutex> lk(im.error_mutex);
          if (i.value() < im.error_index) {
            im.error_index = i.value();
            im.error = std::current_exception();
          }
        }
      }
    }
    t_in_region = false;
    im.done.fetch_add(end - begin, std::memory_order_release);
    ran = true;
  }
}

void ThreadPool::worker_loop() {
  Impl& im = *impl_;
  using Clock = std::chrono::steady_clock;
  for (;;) {
    auto last_work = Clock::now();
    for (unsigned k = 1;; ++k) {
      if (im.stop.load(std::memory_order_relaxed)) return;
      if (drain()) {
        last_work = Clock::now();
        continue;
      }
      cpu_relax();
      if (k % 64 == 0 && Clock::now() - last_work > kSpin) break;
    }
    // Park until the next publish. The seq_cst sleeper count pairs with
    // the publisher's: either it sees this sleeper and notifies, or this
    // re-check sees its word.
    const std::uint32_t ticket = im.wake.load(std::memory_order_seq_cst);
    im.sleepers.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t w = im.word.load(std::memory_order_seq_cst);
    if (next_of(w) >= static_cast<std::uint64_t>(size_of(w)) &&
        !im.stop.load(std::memory_order_seq_cst)) {
      im.wake.wait(ticket, std::memory_order_seq_cst);
    }
    im.sleepers.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(int n, FunctionRef fn) {
  if (n <= 0) return;
  if (!t_in_region) regions_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads_ <= 1 || n == 1 || t_in_region ||
      g_serial.load(std::memory_order_relaxed)) {
    // Mirror drain(): run every body even if one throws, then rethrow
    // the first failure. Otherwise a throwing body would leave different
    // side effects (tracer charges, pending transport messages) in
    // serial vs. threaded runs.
#if EXW_CONTRACT_CHECKS_ENABLED
    // A nested call is part of the enclosing rank's body: keep the outer
    // rank context and region. Only a top-level inline region (serial
    // mode, single-thread pool, n == 1) opens a checked region of its own.
    const bool top_level =
        !t_in_region && contract::current_rank() == contract::kNoRank;
    contract::RegionScope region(top_level);
#endif
    // Bodies of an inline region count as in-region too, so a call they
    // nest runs inline as well instead of dispatching to the pool.
    const bool was_in_region = t_in_region;
    t_in_region = true;
    std::exception_ptr error;
    for (int i = 0; i < n; ++i) {
      try {
#if EXW_CONTRACT_CHECKS_ENABLED
        if (top_level) {
          contract::ScopedRankContext ctx(RankId{i});
          fn(i);
          continue;
        }
#endif
        fn(i);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
    }
    t_in_region = was_in_region;
    if (error) {
      std::rethrow_exception(error);
    }
    return;
  }
  EXW_REQUIRE(static_cast<std::uint64_t>(n) <= kSizeMask,
              "parallel_for region too large for the claim word");
  Impl& im = *impl_;
#if EXW_CONTRACT_CHECKS_ENABLED
  contract::RegionScope region(true);
#endif
  im.fn = &fn;
#if EXW_PURITY_CHECKS_ENABLED
  im.region = perf::purity::capture();
#endif
  im.done.store(0, std::memory_order_relaxed);
  im.epoch += 1;
  im.word.store(make_word(im.epoch & 0xff, n), std::memory_order_seq_cst);
  im.wake.fetch_add(1, std::memory_order_seq_cst);
  if (im.sleepers.load(std::memory_order_seq_cst) > 0) {
    im.wake.notify_all();
  }
  drain();
  // Every body is claimed; wait only for the ones other threads run.
  for (unsigned k = 1; im.done.load(std::memory_order_acquire) < n; ++k) {
    if (k < 1024) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  im.fn = nullptr;
  if (im.error) {
    std::exception_ptr e = std::move(im.error);
    im.error = nullptr;
    im.error_index = INT_MAX;
    std::rethrow_exception(e);
  }
}

bool in_parallel_region() { return t_in_region; }

void set_serial_mode(bool serial) {
  g_serial.store(serial, std::memory_order_relaxed);
}

bool serial_mode() { return g_serial.load(std::memory_order_relaxed); }

void parallel_for(int n, FunctionRef fn) {
  ThreadPool::instance().parallel_for(n, fn);
}

}  // namespace exw::par
