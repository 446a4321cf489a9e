#include "par/runtime.hpp"

#include <algorithm>

namespace exw::par {

Runtime::Runtime(int nranks)
    : tracer_(nranks),
#if EXW_COMM_AUDIT_ENABLED
      audit_(std::make_unique<comm_audit::Auditor>(nranks)),
      transport_(&tracer_, nranks, audit_.get()),
#else
      transport_(&tracer_, nranks),
#endif
      nranks_(nranks) {
  EXW_REQUIRE(nranks >= 1, "runtime needs at least one rank");
#if EXW_COMM_AUDIT_ENABLED
  tracer_.set_phase_pop_listener(audit_.get());
#endif
}

Runtime::~Runtime() {
#if EXW_COMM_AUDIT_ENABLED
  // Unhook before the audit so a listener callback can never reach a
  // half-destroyed auditor, then run the never-throwing teardown scan
  // (problems go to stderr and the comm_audit::report() counters).
  tracer_.set_phase_pop_listener(nullptr);
  audit_->teardown_check();
#endif
}

void Runtime::comm_audit_verify() {
#if EXW_COMM_AUDIT_ENABLED
  audit_->final_check("comm_audit_verify");
#endif
}

comm_audit::Auditor* Runtime::comm_auditor() {
#if EXW_COMM_AUDIT_ENABLED
  return audit_.get();
#else
  return nullptr;
#endif
}

void Runtime::check_channel_sent(
    [[maybe_unused]] RankId src, [[maybe_unused]] RankId dst,
    [[maybe_unused]] int tag, [[maybe_unused]] std::size_t count,
    [[maybe_unused]] std::size_t bytes,
    [[maybe_unused]] const char* where EXW_COMM_SITE_DEF) {
#if EXW_CONTRACT_CHECKS_ENABLED
  {
    // The checker keeps one registry node per channel; only the first
    // send it ever sees on a channel allocates.
    EXW_PURITY_ALLOW("contract channel registry");
    contract::check_send(src, dst, tag, where);
  }
  contract::check_message_charge(src);
#endif
  EXW_COMM_AUDIT_RECORD(
      audit_->on_send(src, dst, tag, count, bytes, exw_site));
}

void Runtime::check_channel_received(
    [[maybe_unused]] RankId dst, [[maybe_unused]] RankId src,
    [[maybe_unused]] int tag, [[maybe_unused]] std::size_t count,
    [[maybe_unused]] std::size_t bytes,
    [[maybe_unused]] perf::MessageStamp stamp,
    [[maybe_unused]] const char* where EXW_COMM_SITE_DEF) {
  EXW_CONTRACT_CHECK(contract::check_recv(dst, src, tag, where));
  EXW_CONTRACT_CHECK(
      contract::check_message_receipt(dst, src, tracer_.open(stamp)));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_recv(dst, src, tag, count, bytes, exw_site));
}

double Runtime::allreduce_sum(
    const std::vector<double>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(double));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceSum, 1, exw_site));
  double sum = 0;
  for (double v : per_rank_values) {
    sum += v;
  }
  return sum;
}

std::vector<double> Runtime::allreduce_sum_vec(
    const std::vector<std::vector<double>>& per_rank_values
        EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one vector per rank");
  const std::size_t n = per_rank_values.front().size();
  tracer_.collective(static_cast<double>(n * sizeof(double)));
  EXW_COMM_AUDIT_RECORD(audit_->on_collective(
      comm_audit::OpKind::kAllreduceSumVec, n, exw_site));
  // Collective result staging — the MPI library's reduction buffer in a
  // real run, not application warm-path state.
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<double> sum(n, 0.0);
  for (const auto& v : per_rank_values) {
    EXW_REQUIRE(v.size() == n, "allreduce vector length mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] += v[i];
    }
  }
  return sum;
}

GlobalIndex Runtime::allreduce_sum(
    const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(GlobalIndex));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceSum, 1, exw_site));
  GlobalIndex sum{0};
  for (GlobalIndex v : per_rank_values) {
    sum += v;
  }
  return sum;
}

GlobalIndex Runtime::allreduce_max(
    const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(GlobalIndex));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceMax, 1, exw_site));
  // Seed from the first element, not 0: a zero seed silently clamps the
  // result for all-negative inputs.
  GlobalIndex m = per_rank_values.front();
  for (GlobalIndex v : per_rank_values) {
    m = std::max(m, v);
  }
  return m;
}

}  // namespace exw::par
