#include "perf/tracer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "perf/purity.hpp"

namespace exw::perf {

double PhaseStats::modeled_time(const MachineModel& m) const {
  double worst = 0.0;
  const double f = m.flops_per_s * m.efficiency;
  const double b = m.bytes_per_s * m.efficiency;
  for (const RankWork& w : rank) {
    const double compute = std::max(w.flops / f, w.bytes / b) +
                           static_cast<double>(w.kernels) * m.kernel_launch_s;
    const double comm = static_cast<double>(w.msgs) * m.msg_latency_s +
                        w.msg_bytes / m.msg_bytes_per_s;
    worst = std::max(worst, compute + comm);
  }
  const int nranks = checked_narrow<int>(rank.size());
  const double avg_coll_bytes =
      collectives > 0 ? coll_bytes / static_cast<double>(collectives) : 0.0;
  return worst + static_cast<double>(collectives) *
                     m.allreduce_time(avg_coll_bytes, nranks);
}

double PhaseStats::compute_time(const MachineModel& m) const {
  double worst = 0.0;
  const double f = m.flops_per_s * m.efficiency;
  const double b = m.bytes_per_s * m.efficiency;
  for (const RankWork& w : rank) {
    worst = std::max(worst, std::max(w.flops / f, w.bytes / b) +
                                static_cast<double>(w.kernels) * m.kernel_launch_s);
  }
  return worst;
}

double PhaseStats::comm_time(const MachineModel& m) const {
  double worst = 0.0;
  for (const RankWork& w : rank) {
    worst = std::max(worst, static_cast<double>(w.msgs) * m.msg_latency_s +
                                w.msg_bytes / m.msg_bytes_per_s);
  }
  const int nranks = checked_narrow<int>(rank.size());
  const double avg_coll_bytes =
      collectives > 0 ? coll_bytes / static_cast<double>(collectives) : 0.0;
  return worst + static_cast<double>(collectives) *
                     m.allreduce_time(avg_coll_bytes, nranks);
}

long PhaseStats::total_kernels() const {
  long n = 0;
  for (const auto& w : rank) n += w.kernels;
  return n;
}

long PhaseStats::total_messages() const {
  long n = 0;
  for (const auto& w : rank) n += w.sent;
  return n;
}

double PhaseStats::total_flops() const {
  double n = 0;
  for (const auto& w : rank) n += w.flops;
  return n;
}

double PhaseStats::total_bytes() const {
  double n = 0;
  for (const auto& w : rank) n += w.bytes;
  return n;
}

double PhaseStats::total_index_bytes() const {
  double n = 0;
  for (const auto& w : rank) n += w.index_bytes;
  return n;
}

double PhaseStats::total_value_bytes() const {
  return total_bytes() - total_index_bytes();
}

double PhaseStats::total_value_bytes_f32() const {
  double n = 0;
  for (const auto& w : rank) n += w.value_bytes_f32;
  return n;
}

double PhaseStats::total_value_bytes_f64() const {
  return total_value_bytes() - total_value_bytes_f32();
}

Tracer::Tracer(int nranks) : nranks_(nranks) {
  EXW_REQUIRE(nranks >= 1, "tracer needs at least one rank");
  // Root phase: untagged work is never lost.
  frames_.push_back(Frame{&intern(""), next_serial_++, 0, 0, {}});
}

Tracer::Phase& Tracer::intern(const std::string& name) {
  auto it = phases_.find(name);  // exw-warm-ok: the tracer IS the instrument
  if (it == phases_.end()) {
    it = phases_.emplace(  // exw-warm-ok: once per phase name (cold)
        name, PhaseStats{}).first;
    it->second.rank.assign(  // exw-warm-ok: cold first touch of phase name
        static_cast<std::size_t>(nranks_), RankWork{});
    order_.push_back(name);  // exw-warm-ok: cold first touch of phase name
  }
  return *it;
}

void Tracer::push_phase(const std::string& name) {
  EXW_CONTRACT_CHECK(par::contract::check_phase_mutation("push_phase"));
  const std::string& parent = frames_.back().phase->first;
  Phase& phase = intern(parent.empty() ? name : parent + "/" + name);
  const auto t = purity::totals();
  frames_.push_back(Frame{&phase, next_serial_++, t.allocs, t.bytes,
                          std::chrono::steady_clock::now()});
}

void Tracer::pop_phase() {
  EXW_CONTRACT_CHECK(par::contract::check_phase_mutation("pop_phase"));
  EXW_REQUIRE(frames_.size() > 1, "pop_phase with no open phase");
  const Frame& f = frames_.back();
  PhaseStats& s = f.phase->second;
  s.wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - f.t0)
          .count();
  // Fold the process-wide allocation delta into the closing phase. The
  // delta naturally includes nested phases' activity, matching how
  // kernel charges accrue to every open phase.
  const auto t = purity::totals();
  s.allocs += static_cast<long long>(t.allocs - f.allocs0);
  s.alloc_bytes += static_cast<double>(t.bytes - f.bytes0);
  // The registry's key, so it outlives the pop.
  const std::string& closed = f.phase->first;
  frames_.pop_back();
  // Boundary hook last, with the pop fully applied, so a listener that
  // throws (a failed boundary audit) leaves the phase stack consistent.
  if (pop_listener_ != nullptr) {
    pop_listener_->on_phase_pop(closed);
  }
}

void Tracer::kernel(RankId r, double flops, double bytes) {
  kernel_split_prec(r, flops, bytes, 0.0, 0.0);
}

void Tracer::kernel_split_prec(RankId r, double flops, double value_bytes_f64,
                               double value_bytes_f32, double index_bytes) {
  EXW_ASSERT(r.value() >= 0 && r.value() < nranks_);
  EXW_CONTRACT_CHECK(par::contract::check_kernel_charge(r));
  add_kernels(r, 1, flops, value_bytes_f64, value_bytes_f32, index_bytes);
}

void Tracer::add_kernels(RankId r, long n, double flops,
                         double value_bytes_f64, double value_bytes_f32,
                         double index_bytes) {
  // Rank r's slots are written only by the thread running rank r's body,
  // so plain accumulation is race-free even inside parallel regions (the
  // stack is frozen there and charges never look up or insert phases).
  // Each charge walks every open phase: charge_dense_lu's n^3/3 flops
  // are not integers, so sums over ancestors would depend on order.
  for (const Frame& f : frames_) {
    auto& w = f.phase->second.rank[static_cast<std::size_t>(r)];
    w.flops += flops;
    w.bytes += value_bytes_f64 + value_bytes_f32 + index_bytes;
    w.index_bytes += index_bytes;
    w.value_bytes_f32 += value_bytes_f32;
    w.kernels += n;
  }
}

void Tracer::message(RankId src, RankId dst, double bytes) {
  message_received(dst, src, bytes, message_sent(src, dst, bytes));
}

MessageStamp Tracer::message_sent(RankId src, [[maybe_unused]] RankId dst,
                                  double bytes) {
  EXW_ASSERT(src.value() >= 0 && src.value() < nranks_ &&
             dst.value() >= 0 && dst.value() < nranks_);
  EXW_CONTRACT_CHECK(par::contract::check_message_charge(src));
  add_messages(src, frames_.size() - 1, 1, bytes, 1);
  return stamp();
}

void Tracer::message_received(RankId dst, RankId src, double bytes,
                              MessageStamp stamp) {
  EXW_ASSERT(src.value() >= 0 && src.value() < nranks_ &&
             dst.value() >= 0 && dst.value() < nranks_);
  EXW_CONTRACT_CHECK(
      par::contract::check_message_receipt(dst, src, open(stamp)));
  if (dst == src) return;  // a self-message is charged once, at send
  add_messages(dst, stamp.depth, 1, bytes, 0);
}

void Tracer::charge_sent(RankId r, const Tally& t) {
  charge_kernels(r, t);
  if (t.msgs > 0) {
    add_messages(r, frames_.size() - 1, t.msgs, t.msg_bytes, t.msgs);
  }
}

void Tracer::charge_received(RankId r, const Tally& t, MessageStamp stamp) {
  charge_kernels(r, t);
  if (t.msgs > 0) add_messages(r, stamp.depth, t.msgs, t.msg_bytes, 0);
}

void Tracer::charge_kernels(RankId r, const Tally& t) {
  EXW_ASSERT(r.value() >= 0 && r.value() < nranks_);
  if (t.kernels == 0) return;
  EXW_CONTRACT_CHECK(par::contract::check_kernel_charge(r));
  add_kernels(r, t.kernels, t.flops, t.value_bytes_f64, t.value_bytes_f32,
              t.index_bytes);
}

void Tracer::add_messages(RankId r, std::size_t depth, long n, double bytes,
                          long sent) {
  // Like add_kernels: only rank r's body writes rank r's slots. Unchecked
  // builds keep a late receipt in bounds (and misattributed).
  const std::size_t top = std::min(depth, frames_.size() - 1);
  for (std::size_t d = 0; d <= top; ++d) {
    auto& w = frames_[d].phase->second.rank[static_cast<std::size_t>(r)];
    w.msgs += n;
    w.msg_bytes += bytes;
    w.sent += sent;
  }
}

void Tracer::collective(double bytes) {
  for (const Frame& f : frames_) {
    auto& s = f.phase->second;
    s.collectives += 1;
    s.coll_bytes += bytes;
  }
}

double Tracer::phase_time(const std::string& name,
                          const MachineModel& m) const {
  return phase(name).modeled_time(m);
}

const PhaseStats& Tracer::phase(const std::string& name) const {
  auto it = phases_.find(name);
  EXW_REQUIRE(it != phases_.end(), "unknown phase: " + name);
  it->second.messages = it->second.total_messages();
  return it->second;
}

bool Tracer::has_phase(const std::string& name) const {
  return phases_.contains(name);
}

std::vector<std::string> Tracer::phase_names() const { return order_; }

void Tracer::reset() {
  for (auto& [name, s] : phases_) {
    std::fill(s.rank.begin(), s.rank.end(), RankWork{});
    s.collectives = 0;
    s.coll_bytes = 0;
    s.messages = 0;
    s.allocs = 0;
    s.alloc_bytes = 0;
    s.wall_s = 0;
  }
}

}  // namespace exw::perf
