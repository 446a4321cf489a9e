#pragma once
/// \file contract.hpp
/// Machine-checked threading contract for the rank-parallel executor.
///
/// thread_pool.hpp states the contract rank bodies must obey so that
/// concurrent execution stays bitwise-identical to the serial loop:
///   * body `i` mutates only rank-i-owned state;
///   * body `i` sends with `src == i` and receives with `dst == i`, so
///     every (src, dst, tag) mailbox channel has a single sender thread
///     and per-channel FIFO order is deterministic;
///   * Tracer kernel charges and the send half of a message charge are
///     made as rank `i`, the receive half as the message's dst, while
///     the phase that sent the message is still open;
///   * the phase stack is frozen while a region runs (push/pop only on
///     the orchestrator, between regions).
/// This header turns those rules from prose into runtime checks.
///
/// Mechanics: ThreadPool::parallel_for opens a *checked region* and sets
/// a thread-local ScopedRankContext(i) around each body, so every layer
/// that carries the contract (Transport, Tracer, the per-rank accessors
/// in linalg/assembly) can ask "which rank body am I inside?" and reject
/// cross-rank access with an actionable exw::Error. A per-region
/// channel registry additionally detects two distinct threads sending on
/// the same (src, dst, tag) channel — the FIFO-determinism invariant —
/// even when rank contexts cannot place the callers.
///
/// Checks compile away entirely when EXW_CONTRACT_CHECKS=OFF (the CMake
/// option; default ON except in Release builds): call sites go through
/// the EXW_CONTRACT_CHECK macros, which expand to ((void)0) with the
/// option off, so hot paths carry zero overhead in production builds.

#include <string>

#include "common/types.hpp"

#ifndef EXW_CONTRACT_CHECKS_ENABLED
#define EXW_CONTRACT_CHECKS_ENABLED 0
#endif

#if EXW_CONTRACT_CHECKS_ENABLED
/// Evaluate a contract-check expression (compiled out when checks are off).
#define EXW_CONTRACT_CHECK(...) \
  do {                          \
    __VA_ARGS__;                \
  } while (0)
/// Reject a write to rank `rank`'s state from a different rank's body.
#define EXW_CONTRACT_CHECK_WRITE(rank, what) \
  ::exw::par::contract::check_rank_write((rank), (what), __FILE__, __LINE__)
#else
#define EXW_CONTRACT_CHECK(...) ((void)0)
#define EXW_CONTRACT_CHECK_WRITE(rank, what) ((void)0)
#endif

namespace exw::par::contract {

/// True when the build carries contract checks (EXW_CONTRACT_CHECKS=ON).
constexpr bool enabled() { return EXW_CONTRACT_CHECKS_ENABLED != 0; }

/// RAII thread-local rank context. ThreadPool::parallel_for wraps each
/// body `i` in ScopedRankContext(i); nested (inline) regions keep the
/// outer context, since their bodies are part of the outer rank's work.
class ScopedRankContext {
 public:
  explicit ScopedRankContext(RankId rank);
  ~ScopedRankContext();
  ScopedRankContext(const ScopedRankContext&) = delete;
  ScopedRankContext& operator=(const ScopedRankContext&) = delete;

 private:
  RankId prev_;
};

/// Rank body the calling thread is executing, or kNoRank outside regions.
inline constexpr RankId kNoRank{-1};
RankId current_rank();

/// Region lifecycle, driven by ThreadPool::parallel_for at top level.
/// begin_region() starts a new generation of the channel-sender
/// registry (its nodes persist, so steady-state checks do not allocate).
void begin_region();
void end_region();

/// RAII region guard (no-op when `active` is false, for nested calls).
class RegionScope {
 public:
  explicit RegionScope(bool active) : active_(active) {
    if (active_) begin_region();
  }
  ~RegionScope() {
    if (active_) end_region();
  }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool active_;
};

// --- checks (throw exw::Error on violation) ------------------------------

/// Transport::send and ParCsr channel writes: the caller's rank context
/// must equal `src`, and no other thread may have sent on (src, dst, tag)
/// within this region. The first send on a channel ever seen adds a
/// registry node (one allocation).
void check_send(RankId src, RankId dst, int tag, const char* where);

/// Transport::recv: the caller's rank context must equal `dst`.
void check_recv(RankId dst, RankId src, int tag, const char* where);

/// Mutable access to rank `target`'s state: context must match.
void check_rank_write(RankId target, const char* what, const char* file,
                      int line);

/// Tracer::kernel — work on rank `r` must be charged by rank r's body.
void check_kernel_charge(RankId r);

/// Tracer::message_sent — a message must be charged by the sender's body.
void check_message_charge(RankId src);

/// Tracer::message_received — the receive half must be charged by the
/// receiver's body, while the phase that sent the message is still open
/// (`sender_phase_open`; once that phase popped, its roll-up is done).
void check_message_receipt(RankId dst, RankId src, bool sender_phase_open);

/// Tracer phase push/pop — rejected inside a parallel region.
void check_phase_mutation(const char* op);

// --- reporting -----------------------------------------------------------

/// Counters of everything the checker looked at (for tests and triage).
struct Report {
  long regions = 0;          ///< checked parallel regions opened
  long sends = 0;            ///< Transport::send calls checked
  long recvs = 0;            ///< Transport::recv calls checked
  long rank_writes = 0;      ///< per-rank mutable accessor calls checked
  long kernel_charges = 0;   ///< Tracer::kernel calls checked
  long message_charges = 0;  ///< send halves of message charges checked
  long message_receipts = 0;  ///< receive halves of message charges checked
  long phase_mutations = 0;  ///< phase push/pop calls checked
  long violations = 0;       ///< checks that threw
};

/// Snapshot of the process-wide counters.
Report report();

/// Reset all counters (tests).
void reset();

/// One-line human-readable summary of report().
std::string summary();

}  // namespace exw::par::contract
