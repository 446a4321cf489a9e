#pragma once
/// \file runtime.hpp
/// The simulated distributed world: ranks, transport, and cost accounting.
///
/// The reproduction runs SPMD algorithms "rank-sequentially": distributed
/// operations are driven globally and loop over ranks for their local
/// phases, exchanging data through the in-memory Transport below. The
/// Transport mirrors the MPI message-passing model (explicit send/recv with
/// source, destination, and tag; exchange = the pack/communicate/unpack
/// halo pattern) so the code reads like the real program, and it charges
/// every message to the Tracer's cost model. It carries the irregular
/// traffic whose pattern is not frozen: cold and general assembly, AMG
/// setup and the AMG external-row fetch.
///
/// The regular, repeated traffic — ParCsr's halo exchange and transpose
/// product, and the warm assembly-plan refills — runs on persistent
/// channels instead, as MPI persistent requests and hypre's communication
/// package do: the sender packs straight into the receiver's buffer,
/// frozen per (src, dst) pair, and Runtime::channel_sent /
/// channel_received do the same bookkeeping a Transport message gets
/// (contract checks, tracer charges, comm audit). A warm Picard
/// iteration posts nothing to Transport.
///
/// Local phases may also run concurrently, one thread per simulated rank,
/// via Runtime::parallel_for_ranks (see thread_pool.hpp for the threading
/// contract). Mailboxes are sharded by destination rank with one lock per
/// shard, so sends from concurrent rank bodies are safe without
/// serializing the whole transport. A message's tracer charge is split
/// into the sender's half, taken at send, and the receiver's half, taken
/// at receipt, so each is written by the rank that owns it; each half
/// lands in every phase that was open when the message was sent.

#include <cstddef>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "par/comm_audit.hpp"
#include "par/contract.hpp"
#include "par/thread_pool.hpp"
#include "perf/purity.hpp"
#include "perf/tracer.hpp"

namespace exw::par {

/// In-memory point-to-point mailboxes between simulated ranks.
class Transport {
 public:
  /// `audit` (optional, owned by Runtime) receives a ledger record for
  /// every send/recv when EXW_COMM_AUDIT=ON; see par/comm_audit.hpp.
  Transport(perf::Tracer* tracer, int nranks,
            comm_audit::Auditor* audit = nullptr)
      : tracer_(tracer),
        audit_(audit),
        shards_(static_cast<std::size_t>(nranks > 0 ? nranks : 1)),
        nranks_(nranks > 0 ? nranks : 1) {}

  /// Post a message. The sender's half of its charge is taken now, the
  /// receiver's half by recv(). Safe to call from concurrent rank bodies;
  /// per-channel FIFO order is preserved because each (src, dst, tag)
  /// channel has a single sender (enforced by the contract checker
  /// inside parallel regions).
  /// With the comm audit ON, the declaration grows a defaulted
  /// std::source_location parameter capturing the caller's call site.
  template <typename T>
  void send(RankId src, RankId dst, int tag,
            const std::vector<T>& payload EXW_COMM_SITE_DECL) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_rank(src, "send src");
    require_rank(dst, "send dst");
    EXW_CONTRACT_CHECK(contract::check_send(src, dst, tag, "Transport::send"));
    // Ledger entry goes in before the mailbox push: a concurrent receiver
    // can only observe the message after the push, so its matching recv
    // record always finds this send already on the channel FIFO.
    EXW_COMM_AUDIT_RECORD(if (audit_ != nullptr) audit_->on_send(
        src, dst, tag, payload.size(), payload.size() * sizeof(T), exw_site));
    // The staging buffer and mailbox nodes stand in for the NIC/MPI
    // library's internal buffers, which a real run would not allocate on
    // the application's critical path — so purity regions tolerate them.
    EXW_PURITY_ALLOW("simulated-NIC message serialization");
    Message msg{to_bytes(payload), {}};
    if (tracer_ != nullptr) {
      msg.stamp = tracer_->message_sent(src, dst,
                                        static_cast<double>(msg.raw.size()));
    }
    Shard& sh = shard(dst);
    std::lock_guard<std::mutex> lk(sh.mutex);
    sh.boxes[Key{src, dst, tag}].push_back(std::move(msg));
  }

  /// Receive the oldest matching message; throws if none is pending.
  template <typename T>
  std::vector<T> recv(RankId dst, RankId src, int tag EXW_COMM_SITE_DECL) {
    require_rank(dst, "recv dst");
    require_rank(src, "recv src");
    EXW_CONTRACT_CHECK(contract::check_recv(dst, src, tag, "Transport::recv"));
    // Mirror of send(): deserialization is the simulated NIC's buffer,
    // not application warm-path state.
    EXW_PURITY_ALLOW("simulated-NIC message deserialization");
    Shard& sh = shard(dst);
    Message msg;
    {
      std::lock_guard<std::mutex> lk(sh.mutex);
      auto it = sh.boxes.find(Key{src, dst, tag});
      EXW_REQUIRE(it != sh.boxes.end() && !it->second.empty(),
                  "recv with no matching message");
      msg = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) {
        sh.boxes.erase(it);
      }
    }
    const std::vector<std::byte>& raw = msg.raw;
    std::vector<T> out = from_bytes<T>(raw);
    if (tracer_ != nullptr) {
      tracer_->message_received(dst, src, static_cast<double>(raw.size()),
                                msg.stamp);
    }
    // Recorded only after successful extraction, so the audit matches
    // exactly the messages that were actually consumed.
    EXW_COMM_AUDIT_RECORD(if (audit_ != nullptr) audit_->on_recv(
        dst, src, tag, out.size(), raw.size(), exw_site));
    return out;
  }

  /// True if a message from src to dst with tag is pending.
  bool has_message(RankId dst, RankId src, int tag) const {
    require_rank(dst, "has_message dst");
    require_rank(src, "has_message src");
    const Shard& sh = shard(dst);
    std::lock_guard<std::mutex> lk(sh.mutex);
    auto it = sh.boxes.find(Key{src, dst, tag});
    return it != sh.boxes.end() && !it->second.empty();
  }

  /// No messages left anywhere (useful test invariant: protocols drain).
  bool drained() const {
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh.mutex);
      if (!sh.boxes.empty()) return false;
    }
    return true;
  }

 private:
  struct Key {
    RankId src;
    RankId dst;
    int tag;
    auto operator<=>(const Key&) const = default;
  };

  struct Message {
    std::vector<std::byte> raw;
    perf::MessageStamp stamp;  ///< the sender's phase, for the receipt
  };

  /// One lock + mailbox map per destination rank: concurrent senders to
  /// different destinations never contend, and the common in-region
  /// pattern (every rank draining its own inbox while posting to
  /// neighbors) contends only on true neighbor pairs.
  struct Shard {
    mutable std::mutex mutex;
    std::map<Key, std::deque<Message>> boxes;
  };

  /// All public entry points validate ranks first: an out-of-range id
  /// must throw, not silently alias another rank's shard via modulo
  /// wrap-around and corrupt its mailboxes.
  void require_rank(RankId r, const char* what) const {
    EXW_REQUIRE(r.value() >= 0 && r.value() < nranks_,
                std::string(what) + " rank out of range [0, nranks)");
  }

  Shard& shard(RankId dst) { return shards_[static_cast<std::size_t>(dst)]; }
  const Shard& shard(RankId dst) const {
    return shards_[static_cast<std::size_t>(dst)];
  }

  template <typename T>
  static std::vector<std::byte> to_bytes(const std::vector<T>& v) {
    std::vector<std::byte> out(v.size() * sizeof(T));
    if (!v.empty()) {
      std::memcpy(out.data(), v.data(), out.size());
    }
    return out;
  }

  template <typename T>
  static std::vector<T> from_bytes(const std::vector<std::byte>& raw) {
    EXW_REQUIRE(raw.size() % sizeof(T) == 0, "message size/type mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    return out;
  }

  perf::Tracer* tracer_;
  comm_audit::Auditor* audit_;  ///< not owned; null when audit is OFF
  std::vector<Shard> shards_;
  int nranks_;
};

/// The simulated world handed to every distributed component.
class Runtime {
 public:
  /// With EXW_COMM_AUDIT=ON the constructor also creates the world's
  /// communication auditor, feeds it from the transport and collectives,
  /// and hooks it to the tracer's phase boundaries; the destructor runs
  /// a never-throwing teardown audit (see comm_audit.hpp).
  explicit Runtime(int nranks);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int nranks() const { return nranks_; }
  perf::Tracer& tracer() { return tracer_; }
  const perf::Tracer& tracer() const { return tracer_; }
  Transport& transport() { return transport_; }

  /// Run the full communication audit now (collective-sequence
  /// comparison + unmatched-send scan) and throw exw::Error on the first
  /// problem. No-op when the audit is compiled out. Tests use this to
  /// assert on violations; production code gets the same scan, without
  /// the throw, from the destructor.
  void comm_audit_verify();

  /// The world's auditor, for introspection; null when EXW_COMM_AUDIT=OFF.
  comm_audit::Auditor* comm_auditor();

  /// One message on a persistent channel, which the caller already
  /// packed straight into the receiver's buffer: the contract checks
  /// (rank context, single sender per channel, the charge's owner) and
  /// the comm-audit record Transport::send makes, per message, in check
  /// builds; then its send half goes into src's body tally, which the
  /// body charges once at its end (perf::Tracer::charge_sent). `where`
  /// names the caller in contract diagnostics. Called by src's body;
  /// the receivers take the exchange's perf::Tracer::stamp().
  void channel_sent([[maybe_unused]] RankId src, [[maybe_unused]] RankId dst,
                    [[maybe_unused]] int tag,
                    [[maybe_unused]] std::size_t count, std::size_t bytes,
                    perf::Tally& tally,
                    [[maybe_unused]] const char* where EXW_COMM_SITE_DECL) {
#if EXW_CONTRACT_CHECKS_ENABLED || EXW_COMM_AUDIT_ENABLED
    check_channel_sent(src, dst, tag, count, bytes,
                       where EXW_COMM_SITE_PASS);
#endif
    tally.message(static_cast<double>(bytes));
  }
  /// The receiving half, called by dst's body when it consumes the
  /// message: contract checks (the sending phase still open), comm-audit
  /// record, and the receive half into dst's tally (none for dst ==
  /// src), charged by perf::Tracer::charge_received.
  void channel_received(RankId dst, RankId src, [[maybe_unused]] int tag,
                        [[maybe_unused]] std::size_t count, std::size_t bytes,
                        [[maybe_unused]] perf::MessageStamp stamp,
                        perf::Tally& tally,
                        [[maybe_unused]] const char* where EXW_COMM_SITE_DECL) {
#if EXW_CONTRACT_CHECKS_ENABLED || EXW_COMM_AUDIT_ENABLED
    check_channel_received(dst, src, tag, count, bytes, stamp,
                           where EXW_COMM_SITE_PASS);
#endif
    if (dst != src) tally.message(static_cast<double>(bytes));
  }

  /// Run fn(r) for every rank, potentially concurrently (one thread per
  /// rank body, blocking until all return). Rank bodies stay internally
  /// sequential, so results are bitwise-identical to the serial loop.
  /// Templated (not std::function) so warm-path dispatch never heap-
  /// allocates: the callable travels by non-owning FunctionRef.
  template <typename F>
  void parallel_for_ranks(F&& fn) const {
    parallel_for(nranks_, [&fn](int i) { fn(RankId{i}); });
  }

  /// Sum a per-rank contribution into one global value, charging one
  /// allreduce. The SPMD analogue of MPI_Allreduce(MPI_SUM). Like
  /// Transport::send/recv, each collective grows a defaulted source-
  /// location parameter under the comm audit, so divergence reports name
  /// the caller's call site.
  double allreduce_sum(
      const std::vector<double>& per_rank_values EXW_COMM_SITE_DECL);

  /// Elementwise allreduce over per-rank vectors of equal length.
  std::vector<double> allreduce_sum_vec(
      const std::vector<std::vector<double>>& per_rank_values
          EXW_COMM_SITE_DECL);

  GlobalIndex allreduce_sum(
      const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DECL);
  GlobalIndex allreduce_max(
      const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DECL);

 private:
  void check_channel_sent(RankId src, RankId dst, int tag, std::size_t count,
                          std::size_t bytes,
                          const char* where EXW_COMM_SITE_DECL);
  void check_channel_received(RankId dst, RankId src, int tag,
                              std::size_t count, std::size_t bytes,
                              perf::MessageStamp stamp,
                              const char* where EXW_COMM_SITE_DECL);

  perf::Tracer tracer_;
#if EXW_COMM_AUDIT_ENABLED
  /// Declared between tracer_ and transport_: constructed after the
  /// tracer it listens to, before the transport that feeds it, destroyed
  /// in the reverse order.
  std::unique_ptr<comm_audit::Auditor> audit_;
#endif
  Transport transport_;
  int nranks_;
};

}  // namespace exw::par
