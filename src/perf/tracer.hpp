#pragma once
/// \file tracer.hpp
/// Machine-independent work accounting for the simulated runtime.
///
/// Distributed primitives (linalg, assembly, amg, solver) report the work
/// each simulated rank performs:
///   * kernel(rank, flops, bytes)  — one device kernel / CPU loop nest
///   * message(src, dst, bytes)    — one point-to-point message
///   * collective(bytes)           — one allreduce-style collective
///
/// A kernel is one launch, priced at one launch latency whatever it
/// covers. One loop nest that a GPU code runs as a single kernel is
/// charged as one, even when it serves several peers: an owner's halo
/// pack gathers every neighbor's send elements in one kernel, as hypre's
/// comm package packs its send_map_elmts, a transpose product's owner
/// adds every neighbor's contributions in one scatter-add, and an
/// assembly-plan refill copies all of a sender's slices in one kernel.
/// Messages stay one per neighbor pair.
///
/// Work is accumulated per rank inside the currently open *phase* (a
/// hierarchical name such as "continuity/precond_setup"); phase nesting
/// charges work to every open phase. A kernel charge walks the open
/// phases at once. A message is charged in two halves into one phase
/// only — the sender's body charges the src side and the count into the
/// innermost open phase, the receiver's body the dst side into that same
/// phase when it consumes the message — and pop_phase rolls the totals
/// up to every ancestor, so each phase reads exactly what charging every
/// open phase at send time would give, with each tracer slot written by
/// the one rank that owns it. Recorded
/// quantities are machine-independent aggregates (flops, bytes,
/// kernel/message/collective counts), so a single simulation run can be
/// priced under any MachineModel afterwards:
///
///   time(m) = max_r [ max(flops_r/F, bytes_r/B) + kernels_r * t_launch
///                     + msgs_r * alpha + msg_bytes_r / beta ]
///             + collectives * ceil(log2 R) * alpha_coll + coll traffic
///
/// — the bulk-synchronous critical path under a persistent load
/// imbalance, which is the regime of this application (fixed partition,
/// barrier-like collectives every few kernels).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "perf/machine_model.hpp"

namespace exw::perf {

/// One rank's accumulated work within a phase. Cache-line aligned:
/// neighboring ranks' bodies run on different threads and charge their
/// own slots at every kernel, which would otherwise bounce shared lines
/// (on a 4-vCPU host that cost a 4-thread bench_parallel_speedup run
/// about a quarter of its wall time).
struct alignas(64) RankWork {
  double flops = 0;
  double bytes = 0;
  /// Portion of `bytes` spent on index structure (row_ptr/cols/comm
  /// maps) rather than matrix/vector values. Always <= bytes — it is a
  /// labeled subset, not an extra charge — so every modeled-time formula
  /// keeps pricing `bytes` and is unaffected by the split. Fused
  /// multi-RHS kernels read the index structure once per several value
  /// lanes; this label is what makes that saving auditable
  /// (bench_momentum_fused hard-fails on it).
  double index_bytes = 0;
  /// Portion of the *value* traffic (bytes - index_bytes) that streamed
  /// FP32 storage. Same labeled-subset discipline as index_bytes: the
  /// charge is already priced inside `bytes` (at 4 bytes/value, the
  /// kernel's actual stream), this label only makes the per-precision
  /// ledger auditable — bench_mixed_precision hard-fails on the
  /// smoother-stream FP64/FP32 ratio (DESIGN.md §16).
  double value_bytes_f32 = 0;
  long kernels = 0;
  double msg_bytes = 0;
  long msgs = 0;
};

/// Per-phase accumulated work over all ranks.
struct PhaseStats {
  std::vector<RankWork> rank;
  long collectives = 0;
  double coll_bytes = 0;
  /// Always 0: nothing charges a latency-overlapped collective since
  /// pipelined GMRES was deleted. Kept only because
  /// perfbench/runner/main.cpp still adds it to its collective count;
  /// goes once that reader drops it.
  long overlapped_collectives = 0;
  /// Exact point-to-point message count. Kept separately from the
  /// per-rank `msgs` charges: a message is charged to both endpoints
  /// unless dst == src (self-routed triples in assembly), so halving the
  /// per-rank sum undercounts whenever self-messages occur.
  long messages = 0;
  /// Heap allocations observed while this phase was open (process-wide
  /// deltas of the purity sanitizer's counters, taken at push/pop — see
  /// perf/purity.hpp). Like the PR 7 index/value byte split, this is a
  /// label, not a cost: modeled times ignore it, but it lets a bench or
  /// test assert "this phase allocated nothing" without interposing its
  /// own operator new. Zero when EXW_PURITY_CHECKS=OFF.
  long long allocs = 0;
  double alloc_bytes = 0;
  /// Host wall-clock seconds this phase was open, summed over its
  /// openings: one steady_clock read at each push and pop, on the
  /// orchestrator. A measurement of this host, not a charge — modeled
  /// times ignore it, and two runs of the same program differ in it.
  double wall_s = 0;

  /// Modeled wall time of this phase on machine `m`.
  double modeled_time(const MachineModel& m) const;
  /// Compute-only component (max over ranks, no messages/collectives).
  double compute_time(const MachineModel& m) const;
  /// Communication component.
  double comm_time(const MachineModel& m) const;

  long total_kernels() const;
  long total_messages() const;
  double total_flops() const;
  double total_bytes() const;
  /// Index-structure traffic (subset of total_bytes) and its complement.
  double total_index_bytes() const;
  double total_value_bytes() const;
  /// Per-precision split of total_value_bytes (f32 label + complement).
  double total_value_bytes_f32() const;
  double total_value_bytes_f64() const;
};

/// The open phase a message was sent in, handed from the send half of
/// its charge to the receive half. `serial` tells a phase still open
/// from one that was popped (and perhaps reopened) since.
struct MessageStamp {
  std::uint32_t depth = 0;
  std::uint64_t serial = 0;
};

/// One rank body's kernel and channel-message charges, summed while the
/// body runs and made by one Tracer::charge_sent / charge_received call
/// at its end, instead of one charge per message (each charge walks every
/// open phase). Every summand is an integer-valued double (bytes, flop
/// counts of streaming kernels), so the sums are exact and the phase
/// totals come out bit for bit as the per-kernel and per-message charges
/// they replace would leave them.
struct Tally {
  long kernels = 0;
  double flops = 0;
  double value_bytes_f64 = 0;
  double value_bytes_f32 = 0;
  double index_bytes = 0;
  long msgs = 0;
  double msg_bytes = 0;

  /// One kernel, split as Tracer::kernel_split_prec splits it.
  void kernel(double f, double f64, double f32 = 0.0, double index = 0.0) {
    kernels += 1;
    flops += f;
    value_bytes_f64 += f64;
    value_bytes_f32 += f32;
    index_bytes += index;
  }
  /// One message's half (par::Runtime::channel_sent / channel_received
  /// add it after their per-message checks).
  void message(double bytes) {
    msgs += 1;
    msg_bytes += bytes;
  }
};

/// Phase-boundary hook: notified after each pop_phase, with the fully-
/// qualified name of the phase that just closed. This is how boundary
/// audits attach to the phase structure without the tracer knowing about
/// them — par::comm_audit uses it to run its cross-rank collective-
/// sequence comparison at every phase boundary. The notification runs on
/// the orchestrator (pop_phase is contract-checked to be outside
/// parallel regions) and may throw: a boundary audit that fails wants to
/// surface at the boundary, exactly like the contract check that
/// pop_phase already runs.
class PhasePopListener {
 public:
  virtual ~PhasePopListener() = default;
  virtual void on_phase_pop(const std::string& name) = 0;
};

/// Accumulates work by phase.
class Tracer {
 public:
  explicit Tracer(int nranks);
  /// The phase stack points into this tracer's own registry.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int nranks() const { return nranks_; }

  /// Open a nested phase. Pair with pop_phase(); prefer PhaseScope.
  /// Must be called on the orchestrator, between parallel regions — the
  /// contract checker rejects push/pop from inside a rank body.
  void push_phase(const std::string& name);
  void pop_phase();
  /// Fully-qualified name of the innermost open phase.
  const std::string& current_phase() const {
    return frames_.back().phase->first;
  }

  /// One kernel on rank `r` doing `flops` work over `bytes` traffic.
  /// Thread-safe during parallel rank regions as long as it is called
  /// from the thread executing rank r's body (rank r's flops/bytes/
  /// kernels are written only by that thread) and the phase stack is
  /// not mutated. Both conditions are contract-checked (par/contract.hpp).
  void kernel(RankId r, double flops, double bytes);

  /// Same as kernel(), but labels how the traffic splits into value
  /// bytes by precision and index-structure bytes (total charged = f64 +
  /// f32 + index). Kernels that stream sparse structure or FP32-tagged
  /// storage use this so the index-vs-value and per-precision ledgers
  /// stay meaningful; kernel() charges everything as f64 value traffic.
  void kernel_split_prec(RankId r, double flops, double value_bytes_f64,
                         double value_bytes_f32, double index_bytes);

  /// One message of `bytes` from src to dst, charged from the
  /// orchestrator (a modeled exchange with no payload, such as AMG's cf
  /// exchange): both halves at once, to both endpoints (once if
  /// dst == src).
  void message(RankId src, RankId dst, double bytes);

  /// Send half of a message charge: src's msgs/msg_bytes and the phase's
  /// message count, in the innermost open phase. Called by src's body
  /// (contract-checked); the stamp travels with the message.
  MessageStamp message_sent(RankId src, RankId dst, double bytes);

  /// Receive half: dst's msgs/msg_bytes (nothing for dst == src), in the
  /// phase the message was sent in. Called by dst's body when it
  /// consumes the message; that phase must still be open
  /// (contract-checked — a later pop has already rolled it up).
  void message_received(RankId dst, RankId src, double bytes,
                        MessageStamp stamp);

  /// The stamp every message sent now carries: the innermost open
  /// phase. A persistent-channel exchange takes it once on the
  /// orchestrator, before the region whose bodies send, and hands it to
  /// the bodies that receive.
  MessageStamp stamp() const {
    return MessageStamp{static_cast<std::uint32_t>(frames_.size() - 1),
                        frames_.back().serial};
  }
  /// True while the phase that sent a message with this stamp is open.
  bool open(MessageStamp stamp) const {
    return stamp.depth < frames_.size() &&
           frames_[stamp.depth].serial == stamp.serial;
  }

  /// Rank r's tally as the sending side: its kernels in every open phase
  /// and the send halves of its messages in the innermost one, exactly as
  /// kernel_split_prec and message_sent per item would. Called by r's
  /// body; the per-message contract checks are the caller's
  /// (par::Runtime::channel_sent).
  void charge_sent(RankId r, const Tally& t);
  /// The receiving side: kernels in every open phase, receive halves in
  /// the phase `stamp` names (the tally holds no message from r to
  /// itself). Called by r's body, after par::Runtime::channel_received
  /// checked each message.
  void charge_received(RankId r, const Tally& t, MessageStamp stamp);

  /// One allreduce-style collective with `bytes` payload per rank.
  void collective(double bytes);

  /// Modeled seconds of a phase ("" = whole program) on machine `m`.
  double phase_time(const std::string& name, const MachineModel& m) const;
  /// A phase's accumulated work. Reading a phase that is still open
  /// returns everything charged to it so far except the message charges
  /// made inside its still-open sub-phases: those arrive when each
  /// sub-phase pops. Reads belong to the orchestrator, between regions.
  const PhaseStats& phase(const std::string& name) const;
  bool has_phase(const std::string& name) const;

  /// All phase names in first-seen order.
  std::vector<std::string> phase_names() const;

  /// Reset all accumulated stats (phase registry is kept).
  void reset();

  /// Install (or clear, with nullptr) the phase-boundary listener. At
  /// most one listener; the tracer does not own it. The owner must
  /// outlive the tracer or clear the hook first.
  void set_phase_pop_listener(PhasePopListener* listener) {
    pop_listener_ = listener;
  }

 private:
  using Phase = std::map<std::string, PhaseStats>::value_type;
  /// The registry entry of `name`, created on first use (cold).
  Phase& intern(const std::string& name);

  /// One open phase.
  struct Frame {
    Phase* phase;
    std::uint64_t serial;  ///< unique per push
    /// Purity-counter snapshot (allocs, bytes) at push; the delta at
    /// pop is folded into the phase's `allocs`. Unused for the root.
    unsigned long long allocs0;
    unsigned long long bytes0;
    std::chrono::steady_clock::time_point t0;  ///< push time (wall_s)
  };
  /// Message charges of one rank in one open phase that its ancestors
  /// have not seen yet (rolled up at pop). `unsettled` counts sends not
  /// yet added to the phase's own `messages`.
  struct Pending {
    long msgs = 0;
    double msg_bytes = 0;
    long sent = 0;
    long unsettled = 0;
  };
  /// Open phases at most, the root included.
  static constexpr std::size_t kMaxDepth = 16;
  Pending& pending(RankId r, std::size_t depth) const {
    return pending_[static_cast<std::size_t>(r) * kMaxDepth + depth];
  }
  /// Mark rank r's slot at `depth` as charged in this opening. Called
  /// by r's body on its first charge there, so one atomic OR per rank
  /// and opening; the region barrier publishes it to the orchestrator.
  void mark(RankId r, std::size_t depth) {
    const auto i = static_cast<std::size_t>(r.value());
    touched_[depth * words_ + i / 64].fetch_or(std::uint64_t{1} << (i % 64),
                                               std::memory_order_relaxed);
  }
  /// The kernels of a tally (none: nothing), contract-checked once.
  void charge_kernels(RankId r, const Tally& t);
  /// `n` kernels of rank r at once, in every open phase.
  void add_kernels(RankId r, long n, double flops, double value_bytes_f64,
                   double value_bytes_f32, double index_bytes);
  /// Send / receive halves of `n` messages of rank r with `bytes` in all.
  void add_sent(RankId src, long n, double bytes);
  void add_received(RankId dst, long n, double bytes, MessageStamp stamp);
  /// Call fn(r) for every rank marked at `depth`, in rank order.
  template <typename Fn>
  void for_each_marked(std::size_t depth, Fn&& fn) const;
  /// Fold every open phase's unsettled send counts into its `messages`.
  void settle() const;

  int nranks_;
  std::map<std::string, PhaseStats> phases_;
  std::vector<std::string> order_;
  /// Open phases, root first. Map nodes never move, so charges reach
  /// them without a lookup, and concurrent rank bodies can charge work
  /// while the orchestrator holds the stack fixed.
  std::vector<Frame> frames_;
  std::uint64_t next_serial_ = 0;
  /// Rank-major [rank][depth] so each rank's slots are contiguous: only
  /// rank r's body writes rank r's slots during a region.
  mutable std::vector<Pending> pending_;
  /// Which ranks' pending slots hold charges: one bit per rank, `words_`
  /// words per depth. pop_phase and settle visit only marked ranks, so
  /// their cost follows the ranks that messaged, not the rank count.
  std::size_t words_;
  std::vector<std::atomic<std::uint64_t>> touched_;
  PhasePopListener* pop_listener_ = nullptr;  ///< not owned; may be null
};

/// RAII phase guard.
class PhaseScope {
 public:
  PhaseScope(Tracer& tracer, const std::string& name) : tracer_(tracer) {
    tracer_.push_phase(name);
  }
  ~PhaseScope() { tracer_.pop_phase(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace exw::perf
