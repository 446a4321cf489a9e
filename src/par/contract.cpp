#include "par/contract.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"

namespace exw::par::contract {

namespace {

thread_local RankId t_rank = kNoRank;

/// Single-sender registry: (src, dst, tag) -> first sender of the region
/// that last used the channel. Entries from older regions are stale and
/// are overwritten, so nodes persist and a steady state allocates none.
struct ChannelKey {
  RankId src;
  RankId dst;
  int tag;
  auto operator<=>(const ChannelKey&) const = default;
};
struct Sender {
  std::thread::id thread;
  unsigned long long region = 0;
};

std::mutex g_channel_mutex;
std::map<ChannelKey, Sender> g_channel_senders;
unsigned long long g_region_gen = 0;  ///< guarded by g_channel_mutex
std::atomic<bool> g_region_active{false};

struct Counters {
  std::atomic<long> regions{0};
  std::atomic<long> sends{0};
  std::atomic<long> recvs{0};
  std::atomic<long> rank_writes{0};
  std::atomic<long> kernel_charges{0};
  std::atomic<long> message_charges{0};
  std::atomic<long> message_receipts{0};
  std::atomic<long> phase_mutations{0};
  std::atomic<long> violations{0};
};
Counters g_counters;

[[noreturn]] void violation(const std::string& msg) {
  g_counters.violations.fetch_add(1, std::memory_order_relaxed);
  EXW_THROW("threading contract violated: " + msg +
            " (see thread_pool.hpp for the rank-parallel contract)");
}

}  // namespace

ScopedRankContext::ScopedRankContext(RankId rank) : prev_(t_rank) {
  t_rank = rank;
}

ScopedRankContext::~ScopedRankContext() { t_rank = prev_; }

RankId current_rank() { return t_rank; }

void begin_region() {
  {
    std::lock_guard<std::mutex> lk(g_channel_mutex);
    g_region_gen += 1;
  }
  g_region_active.store(true, std::memory_order_release);
  g_counters.regions.fetch_add(1, std::memory_order_relaxed);
}

void end_region() {
  g_region_active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(g_channel_mutex);
  g_region_gen += 1;
}

void check_send(RankId src, RankId dst, int tag, const char* where) {
  g_counters.sends.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != src) {
    std::ostringstream os;
    os << "rank body " << ctx << " called " << where << " with src " << src
       << " (dst " << dst << ", tag " << tag
       << ") — a rank body may only send as itself";
    violation(os.str());
  }
  if (g_region_active.load(std::memory_order_acquire)) {
    const auto me = std::this_thread::get_id();
    std::lock_guard<std::mutex> lk(g_channel_mutex);
    const auto [it, inserted] = g_channel_senders.try_emplace(
        ChannelKey{src, dst, tag}, Sender{me, g_region_gen});
    if (!inserted && it->second.region != g_region_gen) {
      it->second = Sender{me, g_region_gen};  // first send this region
    } else if (!inserted && it->second.thread != me) {
      std::ostringstream os;
      os << "two distinct threads sent on channel (src " << src << ", dst "
         << dst << ", tag " << tag
         << ") within one parallel region — per-channel FIFO order, and with "
            "it bitwise determinism, is lost";
      violation(os.str());
    }
  }
}

void check_recv(RankId dst, RankId src, int tag, const char* where) {
  g_counters.recvs.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != dst) {
    std::ostringstream os;
    os << "rank body " << ctx << " called " << where << " with dst " << dst
       << " (src " << src << ", tag " << tag
       << ") — a rank body may only receive its own messages";
    violation(os.str());
  }
}

void check_rank_write(RankId target, const char* what, const char* file,
                      int line) {
  g_counters.rank_writes.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != target) {
    std::ostringstream os;
    os << "rank body " << ctx << " wrote rank " << target << "'s state via "
       << what << " at " << file << ":" << line
       << " — a rank body may only mutate its own rank's state";
    violation(os.str());
  }
}

void check_kernel_charge(RankId r) {
  g_counters.kernel_charges.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != r) {
    std::ostringstream os;
    os << "rank body " << ctx << " charged Tracer::kernel to rank " << r
       << " — kernel work must be charged by the owning rank's body";
    violation(os.str());
  }
}

void check_message_charge(RankId src) {
  g_counters.message_charges.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != src) {
    std::ostringstream os;
    os << "rank body " << ctx << " charged Tracer::message with src " << src
       << " — a message must be charged by the sending rank's body";
    violation(os.str());
  }
}

void check_message_receipt(RankId dst, RankId src, bool sender_phase_open) {
  g_counters.message_receipts.fetch_add(1, std::memory_order_relaxed);
  const RankId ctx = t_rank;
  if (ctx != kNoRank && ctx != dst) {
    std::ostringstream os;
    os << "rank body " << ctx << " charged the receipt of a message to dst "
       << dst << " (src " << src
       << ") — a message's receive half must be charged by the receiving "
          "rank's body";
    violation(os.str());
  }
  if (!sender_phase_open) {
    std::ostringstream os;
    os << "message from " << src << " to " << dst
       << " was received after the tracer phase that sent it was popped — "
          "its totals would miss the receive half; receive before the "
          "sending phase closes";
    violation(os.str());
  }
}

void check_phase_mutation(const char* op) {
  g_counters.phase_mutations.fetch_add(1, std::memory_order_relaxed);
  if (t_rank != kNoRank) {
    std::ostringstream os;
    os << "Tracer::" << op << " called from inside rank body " << t_rank
       << " — the phase stack is frozen during parallel regions; push/pop "
          "phases on the orchestrator, between regions";
    violation(os.str());
  }
}

Report report() {
  Report r;
  r.regions = g_counters.regions.load(std::memory_order_relaxed);
  r.sends = g_counters.sends.load(std::memory_order_relaxed);
  r.recvs = g_counters.recvs.load(std::memory_order_relaxed);
  r.rank_writes = g_counters.rank_writes.load(std::memory_order_relaxed);
  r.kernel_charges = g_counters.kernel_charges.load(std::memory_order_relaxed);
  r.message_charges =
      g_counters.message_charges.load(std::memory_order_relaxed);
  r.message_receipts =
      g_counters.message_receipts.load(std::memory_order_relaxed);
  r.phase_mutations =
      g_counters.phase_mutations.load(std::memory_order_relaxed);
  r.violations = g_counters.violations.load(std::memory_order_relaxed);
  return r;
}

void reset() {
  g_counters.regions.store(0, std::memory_order_relaxed);
  g_counters.sends.store(0, std::memory_order_relaxed);
  g_counters.recvs.store(0, std::memory_order_relaxed);
  g_counters.rank_writes.store(0, std::memory_order_relaxed);
  g_counters.kernel_charges.store(0, std::memory_order_relaxed);
  g_counters.message_charges.store(0, std::memory_order_relaxed);
  g_counters.message_receipts.store(0, std::memory_order_relaxed);
  g_counters.phase_mutations.store(0, std::memory_order_relaxed);
  g_counters.violations.store(0, std::memory_order_relaxed);
}

std::string summary() {
  const Report r = report();
  std::ostringstream os;
  os << "contract: " << r.regions << " regions, " << r.sends << " sends, "
     << r.recvs << " recvs, " << r.rank_writes << " rank writes, "
     << r.kernel_charges << " kernel charges, " << r.message_charges
     << " message charges, " << r.message_receipts << " message receipts, "
     << r.phase_mutations << " phase ops, "
     << r.violations << " violations";
  return os.str();
}

}  // namespace exw::par::contract
