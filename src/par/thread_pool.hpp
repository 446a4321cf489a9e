#pragma once
/// \file thread_pool.hpp
/// Shared-memory execution of simulated-rank local phases.
///
/// The reproduction drives SPMD algorithms rank-sequentially from one
/// orchestrator thread, but each rank's local phase is embarrassingly
/// parallel by construction (that is the paper's whole premise). The
/// process-wide ThreadPool below runs `fn(0..n-1)` concurrently so the
/// wall-clock of the Table 1 / Fig. 3-10 benchmarks no longer grows
/// linearly with the simulated rank count.
///
/// Contract for rank bodies executed through parallel_for():
///   * body `i` runs exactly once, on some pool thread (or inline);
///   * a body may freely mutate rank-i-owned state, call
///     Transport::send / recv for rank i (mailboxes are lock-sharded),
///     write rank i's side of a persistent channel (ParCsr halo, plan
///     refill), and charge
///     Tracer::kernel for rank i. A message is charged in two halves,
///     each by the rank that owns it and each to every phase open at
///     send: the sender's body charges the src side and the count, the
///     receiver's body the dst side when it consumes the message — so no
///     tracer slot has two writers;
///   * phase push/pop must stay on the orchestrator thread — the open
///     phase stack is frozen for the duration of the region;
///   * nested parallel_for() calls run inline on the calling thread,
///     inside an inline (serial-mode or one-body) region too;
///   * every body runs even if some throw; the exception of the lowest-
///     numbered throwing body is rethrown on the orchestrator thread
///     once every body has finished (the serial loop's first failure).
///
/// Protocol: one atomic word carries the region's epoch, its size n and
/// the next unclaimed body. The orchestrator publishes the callable and
/// the purity region, then stores the word (release); it and the workers
/// claim bodies in chunks with a fetch_add on the word and read the
/// callable only after a successful claim. Once every body is claimed,
/// the orchestrator waits only for claimed bodies still running, so an
/// idle worker that is descheduled, or still asleep, cannot stall a
/// region. Idle workers
/// spin on the word for a bounded time, then park on a futex-backed
/// std::atomic::wait until the next publish. There is no mutex on the
/// dispatch path (one guards only the rare exception hand-off).
///
/// Sizing: EXW_NUM_THREADS if set, else std::thread::hardware_concurrency.
/// EXW_SERIAL=1 (or set_serial_mode(true), the benches' --serial flag)
/// forces every region inline for determinism debugging; the parallel
/// path is bitwise-identical anyway because each rank body is unchanged
/// and all reductions happen on the orchestrator.

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace exw::par {

/// Non-owning, non-allocating reference to a callable `void(int)`.
///
/// parallel_for used to take `const std::function<void(int)>&`; every
/// call site passes a stack lambda, and converting a lambda whose
/// captures exceed the small-buffer size into a std::function heap-
/// allocates — on the *warm* path, once per dispatch. FunctionRef is two
/// words (object pointer + thunk) and never owns, which is exactly right
/// for a fork-join region: the callable provably outlives the call.
class FunctionRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_v<F&, int>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, int i) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(i);
        }) {}

  void operator()(int i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, int);
};

class ThreadPool {
 public:
  /// The process-wide pool (created on first use, joined at exit).
  static ThreadPool& instance();

  /// Worker count the pool was sized for (>= 1; 1 means inline only).
  int num_threads() const { return num_threads_; }

  /// Run fn(i) for every i in [0, n), blocking until all bodies return.
  /// The callable is taken by non-owning reference (it outlives the
  /// region by construction), so dispatch never allocates. One thread
  /// dispatches at a time (the orchestrator).
  void parallel_for(int n, FunctionRef fn);

  /// Top-level regions run so far, inline ones included (a nested call
  /// is part of its enclosing body and does not count), so serial and
  /// threaded runs read the same numbers. Tests pin the region structure
  /// of the fused kernels with it.
  std::uint64_t regions() const {
    return regions_.load(std::memory_order_relaxed);
  }

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  void worker_loop();
  /// Claim and run chunks of the published region until none is left;
  /// true if the calling thread ran at least one body.
  bool drain();

  struct Impl;
  Impl* impl_;
  int num_threads_ = 1;
  std::atomic<std::uint64_t> regions_{0};
};

/// True while the calling thread is executing a parallel_for body.
bool in_parallel_region();

/// Force all regions inline (the --serial escape hatch; also EXW_SERIAL=1).
void set_serial_mode(bool serial);
bool serial_mode();

/// Convenience: ThreadPool::instance().parallel_for honoring serial_mode().
void parallel_for(int n, FunctionRef fn);

}  // namespace exw::par
