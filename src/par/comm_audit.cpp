#include "par/comm_audit.hpp"

#if EXW_COMM_AUDIT_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "par/tags.hpp"
#include "perf/purity.hpp"

namespace exw::par::comm_audit {

namespace {

/// Process-wide counters behind report()/reset(), mirroring the contract
/// and purity layers. Relaxed atomics: counts, not synchronization.
struct Counters {
  std::atomic<long long> collectives{0};
  std::atomic<long long> sends{0};
  std::atomic<long long> recvs{0};
  std::atomic<long long> phase_checks{0};
  std::atomic<long long> final_checks{0};
  std::atomic<long long> violations{0};
  std::atomic<long long> teardown_reports{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

std::string site_str(const Record& r) {
  return std::string(r.file) + ":" + std::to_string(r.line);
}

std::string describe(const Record& r) {
  std::string out = op_name(r.kind);
  out += "(count=" + std::to_string(r.count);
  if (r.tag >= 0) {
    out += ", tag=" + std::to_string(r.tag);
    out += " [" + std::string(tags::name(r.tag)) + "]";
  }
  out += ") at " + site_str(r);
  return out;
}

bool same_site(const Record& a, const Record& b) {
  // file_name() pointers can differ across translation units for the
  // same path, so compare contents, not pointers.
  return a.line == b.line && std::strcmp(a.file, b.file) == 0;
}

}  // namespace

Report report() {
  Counters& c = counters();
  Report r;
  r.collectives = c.collectives.load(std::memory_order_relaxed);
  r.sends = c.sends.load(std::memory_order_relaxed);
  r.recvs = c.recvs.load(std::memory_order_relaxed);
  r.phase_checks = c.phase_checks.load(std::memory_order_relaxed);
  r.final_checks = c.final_checks.load(std::memory_order_relaxed);
  r.violations = c.violations.load(std::memory_order_relaxed);
  r.teardown_reports = c.teardown_reports.load(std::memory_order_relaxed);
  return r;
}

void reset() {
  Counters& c = counters();
  c.collectives.store(0, std::memory_order_relaxed);
  c.sends.store(0, std::memory_order_relaxed);
  c.recvs.store(0, std::memory_order_relaxed);
  c.phase_checks.store(0, std::memory_order_relaxed);
  c.final_checks.store(0, std::memory_order_relaxed);
  c.violations.store(0, std::memory_order_relaxed);
  c.teardown_reports.store(0, std::memory_order_relaxed);
}

std::string summary() {
  const Report r = report();
  return "comm-audit: " + std::to_string(r.collectives) + " collectives, " +
         std::to_string(r.sends) + " sends, " + std::to_string(r.recvs) +
         " recvs, " + std::to_string(r.phase_checks) + " boundary checks, " +
         std::to_string(r.final_checks) + " final checks, " +
         std::to_string(r.violations) + " violations";
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAllreduceSum:
      return "allreduce_sum";
    case OpKind::kAllreduceSumVec:
      return "allreduce_sum_vec";
    case OpKind::kAllreduceSumVecOverlapped:
      return "allreduce_sum_vec_overlapped";
    case OpKind::kAllreduceMax:
      return "allreduce_max";
    case OpKind::kSend:
      return "send";
    case OpKind::kRecv:
      return "recv";
  }
  return "?";
}

// --- Auditor internals -----------------------------------------------------

/// Per-rank ledger state. The pending vector holds rank-context
/// collective records awaiting the next boundary comparison; it is
/// cleared (capacity retained) by every successful check, so steady-state
/// audits allocate nothing. Send/recv tallies are atomics because any
/// neighbor's thread observes rank r as an endpoint.
struct Auditor::PerRank {
  std::vector<Record> pending;
  std::atomic<long long> sends{0};
  std::atomic<long long> recvs{0};
};

/// Unmatched-send FIFO for one (src, dst, tag) channel, mirroring the
/// Transport mailbox exactly (per-channel FIFO order is a contract
/// invariant). `fifo[head..)` are messages posted but not yet received;
/// when the channel drains the buffer is cleared with capacity retained,
/// so warm refills that fully consume their messages never re-allocate.
struct Auditor::Channel {
  std::vector<Record> fifo;
  std::size_t head = 0;
};

struct Auditor::Impl {
  explicit Impl(int n) : ranks(static_cast<std::size_t>(n)) {}

  std::mutex mutex;  ///< guards pending vectors and the channel map
  std::atomic<unsigned long long> epoch{0};
  std::vector<PerRank> ranks;
  /// (src, dst, tag) -> unmatched sends. std::map, not unordered: the
  /// end-of-run audit iterates it and must report deterministically.
  std::map<std::tuple<int, int, int>, Channel> channels;
};

Auditor::Auditor(int nranks) : nranks_(nranks) {
  EXW_REQUIRE(nranks >= 1, "comm audit needs at least one rank");
  EXW_PURITY_ALLOW("comm-audit ledger");
  impl_ = new Impl(nranks);  // exw-warm-ok: once per Runtime (cold)
}

Auditor::~Auditor() { delete impl_; }

void Auditor::violation(const std::string& msg) {
  counters().violations.fetch_add(1, std::memory_order_relaxed);
  EXW_THROW("comm-audit: " + msg);
}

void Auditor::on_collective(OpKind kind, std::size_t count,
                            const std::source_location& site) {
  counters().collectives.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = contract::current_rank();
  if (ctx == contract::kNoRank) {
    // Orchestrator-driven global collective: every rank participates by
    // construction, so there is nothing to compare across ranks. Advance
    // the shared epoch that stamps rank-context records, so a rank-body
    // collective interleaved differently with global ones still diverges.
    impl_->epoch.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  EXW_REQUIRE(ctx.value() >= 0 && ctx.value() < nranks_,
              "comm audit: rank context out of range for this Runtime");
  Record rec;
  rec.kind = kind;
  rec.file = site.file_name();
  rec.line = static_cast<int>(site.line());
  rec.count = count;
  rec.epoch = impl_->epoch.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  EXW_PURITY_ALLOW("comm-audit ledger");
  impl_->ranks[static_cast<std::size_t>(ctx.value())]
      .pending.push_back(rec);  // exw-warm-ok: cleared w/ capacity at boundary
}

void Auditor::on_send(RankId src, RankId dst, int tag, std::size_t count,
                      std::size_t bytes, const std::source_location& site) {
  counters().sends.fetch_add(1, std::memory_order_relaxed);
  if (!tags::registered(tag)) {
    violation("send with unregistered tag " + std::to_string(tag) + " (" +
              std::to_string(src.value()) + " -> " +
              std::to_string(dst.value()) + ") at " +
              std::string(site.file_name()) + ":" +
              std::to_string(site.line()) +
              " — add the tag to par/tags.hpp's registry");
  }
  Record rec;
  rec.kind = OpKind::kSend;
  rec.file = site.file_name();
  rec.line = static_cast<int>(site.line());
  rec.count = count;
  rec.bytes = bytes;
  rec.tag = tag;
  rec.neighbor = dst.value();
  rec.epoch = impl_->epoch.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  EXW_PURITY_ALLOW("comm-audit ledger");
  Channel& ch = impl_->channels[{src.value(), dst.value(), tag}];
  // A fused rank body may send on a channel while the receiver's body,
  // in the same region, has yet to take the message sent a region
  // earlier, so a ring holds up to two records: size it for both on
  // first use, before the order of the two bodies can decide it.
  if (ch.fifo.capacity() == 0) {
    ch.fifo.reserve(2);  // exw-warm-ok: first use of a channel
  }
  ch.fifo.push_back(rec);  // exw-warm-ok: drained rings retain capacity
  impl_->ranks[static_cast<std::size_t>(src.value())].sends.fetch_add(
      1, std::memory_order_relaxed);
}

void Auditor::on_recv(RankId dst, RankId src, int tag, std::size_t count,
                      std::size_t bytes, const std::source_location& site) {
  counters().recvs.fetch_add(1, std::memory_order_relaxed);
  if (!tags::registered(tag)) {
    violation("recv with unregistered tag " + std::to_string(tag) + " (" +
              std::to_string(src.value()) + " -> " +
              std::to_string(dst.value()) + ") at " +
              std::string(site.file_name()) + ":" +
              std::to_string(site.line()) +
              " — add the tag to par/tags.hpp's registry");
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->ranks[static_cast<std::size_t>(dst.value())].recvs.fetch_add(
      1, std::memory_order_relaxed);
  auto it = impl_->channels.find(  // exw-warm-ok: ledger lookup, no growth
      std::tuple<int, int, int>{src.value(), dst.value(), tag});
  if (it == impl_->channels.end() || it->second.head >= it->second.fifo.size()) {
    // Transport::recv only succeeds when the mailbox has a message, and
    // every send is recorded before it can be received — so an unrecorded
    // message means the payload bypassed the audited entry points.
    violation("recv of an unrecorded message on channel " +
              std::to_string(src.value()) + " -> " +
              std::to_string(dst.value()) + " tag " + std::to_string(tag) +
              " [" + std::string(tags::name(tag)) + "] at " +
              std::string(site.file_name()) + ":" +
              std::to_string(site.line()));
  }
  Channel& ch = it->second;
  const Record sent = ch.fifo[ch.head];
  ++ch.head;
  if (ch.head == ch.fifo.size()) {
    // Channel drained: reset the ring without giving back capacity, so
    // the next warm refill records into already-owned storage.
    ch.fifo.clear();
    ch.head = 0;
  }
  if (sent.count != count || sent.bytes != bytes) {
    Record got;
    got.kind = OpKind::kRecv;
    got.file = site.file_name();
    got.line = static_cast<int>(site.line());
    got.count = count;
    got.bytes = bytes;
    got.tag = tag;
    got.neighbor = src.value();
    violation("payload mismatch on channel " + std::to_string(src.value()) +
              " -> " + std::to_string(dst.value()) + " tag " +
              std::to_string(tag) + " [" + std::string(tags::name(tag)) +
              "]: sent count=" + std::to_string(sent.count) + "/" +
              std::to_string(sent.bytes) + "B at " + site_str(sent) +
              ", received count=" + std::to_string(count) + "/" +
              std::to_string(bytes) + "B at " + site_str(got) +
              " — element types disagree across the channel");
  }
}

std::string Auditor::sequences_error_locked(const char* where) {
  const std::vector<Record>& ref = impl_->ranks[0].pending;
  std::string err;
  for (std::size_t r = 1; r < impl_->ranks.size() && err.empty(); ++r) {
    const std::vector<Record>& other = impl_->ranks[r].pending;
    const std::size_t common = std::min(ref.size(), other.size());
    for (std::size_t i = 0; i < common; ++i) {
      const Record& a = ref[i];
      const Record& b = other[i];
      if (a.kind != b.kind || a.count != b.count || a.epoch != b.epoch ||
          !same_site(a, b)) {
        err = "divergent collective sequence at " + std::string(where) +
              ", position " + std::to_string(i) + ": rank 0 recorded " +
              describe(a) + " but rank " + std::to_string(r) + " recorded " +
              describe(b);
        break;
      }
    }
    if (err.empty() && ref.size() != other.size()) {
      const bool ref_longer = ref.size() > other.size();
      const Record& extra = ref_longer ? ref[common] : other[common];
      err = "divergent collective sequence at " + std::string(where) +
            ": rank " + std::to_string(ref_longer ? 0 : r) + " recorded " +
            std::to_string(std::max(ref.size(), other.size())) +
            " collective(s) but rank " + std::to_string(ref_longer ? r : 0) +
            " recorded " + std::to_string(common) + "; first extra is " +
            describe(extra) + " — a deadlock on real hardware";
    }
  }
  // Advance the comparison window whether or not the check passed: the
  // divergence is reported once, and teardown stays quiet afterwards.
  for (PerRank& pr : impl_->ranks) {
    pr.pending.clear();  // capacity retained
  }
  return err;
}

std::string Auditor::unmatched_error_locked(const char* where) {
  std::string err;
  std::size_t total = 0;
  for (auto& [key, ch] : impl_->channels) {
    const std::size_t unreceived = ch.fifo.size() - ch.head;
    if (unreceived == 0) {
      continue;
    }
    total += unreceived;
    if (err.empty()) {
      const Record& first = ch.fifo[ch.head];
      err = "unmatched send(s) at " + std::string(where) + ": channel " +
            std::to_string(std::get<0>(key)) + " -> " +
            std::to_string(std::get<1>(key)) + " tag " +
            std::to_string(std::get<2>(key)) + " [" +
            std::string(tags::name(std::get<2>(key))) + "] holds " +
            std::to_string(unreceived) +
            " message(s) sent but never received; first posted by " +
            describe(first);
    }
    // Report once, then forget, so teardown stays quiet after an
    // explicit audit already surfaced the leak.
    ch.fifo.clear();
    ch.head = 0;
  }
  if (!err.empty() && total > 0) {
    err += " (" + std::to_string(total) + " unreceived in total)";
  }
  return err;
}

void Auditor::check_collective_sequences(const char* where) {
  counters().phase_checks.fetch_add(1, std::memory_order_relaxed);
  std::string err;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    err = sequences_error_locked(where);
  }
  if (!err.empty()) {
    violation(err);
  }
}

void Auditor::final_check(const char* where) {
  counters().final_checks.fetch_add(1, std::memory_order_relaxed);
  counters().phase_checks.fetch_add(1, std::memory_order_relaxed);
  std::string err;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    err = sequences_error_locked(where);
    if (err.empty()) {
      err = unmatched_error_locked(where);
    }
  }
  if (!err.empty()) {
    violation(err);
  }
}

int Auditor::teardown_check() noexcept {
  int problems = 0;
  try {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const std::string seq = sequences_error_locked("Runtime teardown");
    if (!seq.empty()) {
      ++problems;
      std::fprintf(stderr, "comm-audit: %s\n", seq.c_str());
    }
    const std::string un = unmatched_error_locked("Runtime teardown");
    if (!un.empty()) {
      ++problems;
      std::fprintf(stderr, "comm-audit: %s\n", un.c_str());
    }
    if (problems > 0) {
      counters().violations.fetch_add(problems, std::memory_order_relaxed);
      counters().teardown_reports.fetch_add(problems,
                                            std::memory_order_relaxed);
    }
  } catch (...) {
    // A destructor-context audit must never propagate (out-of-memory
    // while composing the message, at worst). The violation counters
    // above are only short if the throw preempted them.
  }
  return problems;
}

void Auditor::discard_pending() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (PerRank& pr : impl_->ranks) {
    pr.pending.clear();
  }
  for (auto& [key, ch] : impl_->channels) {
    ch.fifo.clear();
    ch.head = 0;
  }
}

void Auditor::on_phase_pop(const std::string& name) {
  check_collective_sequences(name.empty() ? "<root>" : name.c_str());
}

long long Auditor::rank_sends(RankId r) const {
  return impl_->ranks[static_cast<std::size_t>(r.value())].sends.load(
      std::memory_order_relaxed);
}

long long Auditor::rank_recvs(RankId r) const {
  return impl_->ranks[static_cast<std::size_t>(r.value())].recvs.load(
      std::memory_order_relaxed);
}

std::size_t Auditor::pending_collectives(RankId r) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->ranks[static_cast<std::size_t>(r.value())].pending.size();
}

std::size_t Auditor::unreceived_messages() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::size_t total = 0;
  for (const auto& [key, ch] : impl_->channels) {
    total += ch.fifo.size() - ch.head;
  }
  return total;
}

unsigned long long Auditor::collective_epoch() const {
  return impl_->epoch.load(std::memory_order_relaxed);
}

}  // namespace exw::par::comm_audit

#endif  // EXW_COMM_AUDIT_ENABLED
