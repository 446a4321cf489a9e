#include "assembly/plan.hpp"

#include <algorithm>

#include "assembly/charges.hpp"
#include "common/error.hpp"
#include "par/tags.hpp"
#include "perf/purity.hpp"
#include "sparse/prim.hpp"

namespace exw::assembly {

// Warm-path channel tags come from the central registry (par/tags.hpp):
// kPlanMatVals/kPlanRhsVals, kept distinct from the cold 201-205 channels
// so the comm audit never mistakes a refill for a cold assembly message.
namespace tags = par::tags;

namespace {

using detail::charge_sort;
using detail::charge_stream;
using detail::tally_stream;
using detail::kPairBytes;
using detail::kTripleBytes;

/// Segment a sorted-by-row COO/RHS row array into one contiguous run per
/// owning rank (the cold send loop's structure, frozen).
std::vector<AssemblyPlan::Slice> owner_runs(
    const std::vector<GlobalIndex>& rows_arr, const par::RowPartition& rows) {
  std::vector<AssemblyPlan::Slice> runs;
  std::size_t i = 0;
  while (i < rows_arr.size()) {
    const RankId owner = rows.rank_of(rows_arr[i]);
    std::size_t j = i;
    while (j < rows_arr.size() && rows.rank_of(rows_arr[j]) == owner) {
      ++j;
    }
    runs.push_back({owner, i, j});
    i = j;
  }
  return runs;
}

/// Receive composition for rank dst: ascending-src slices tiling the
/// received region [0, n_recv) — exactly the cold path's drain order.
/// Each matching send learns its slot in that list.
std::vector<AssemblyPlan::Slice> recv_runs(
    RankId dst, const std::vector<std::vector<AssemblyPlan::Slice>*>& sends) {
  std::vector<AssemblyPlan::Slice> runs;
  std::size_t off = 0;
  for (std::size_t src = 0; src < sends.size(); ++src) {
    for (auto& s : *sends[src]) {
      if (s.peer != dst) continue;
      const std::size_t len = s.end - s.begin;
      s.slot = runs.size();
      runs.push_back({RankId{checked_narrow<int>(src)}, off, off + len});
      off += len;
    }
  }
  return runs;
}

/// Source-side slice of `sends` destined for `dst` (one run per pair).
const AssemblyPlan::Slice* find_send(
    const std::vector<AssemblyPlan::Slice>& sends, RankId dst) {
  for (const auto& s : sends) {
    if (s.peer == dst) return &s;
  }
  return nullptr;
}

}  // namespace

std::vector<SystemView> system_views(const EquationGraph& graph) {
  std::vector<SystemView> views(static_cast<std::size_t>(graph.nranks()));
  for (RankId r{0}; r.value() < graph.nranks(); ++r) {
    const RankSystem& rs = graph.rank(r);
    views[static_cast<std::size_t>(r)] = {&rs.owned, &rs.shared,
                                          &rs.rhs_owned, &rs.rhs_shared};
  }
  return views;
}

AssemblyPlan AssemblyPlan::build(par::Runtime& rt,
                                 const par::RowPartition& rows,
                                 const par::RowPartition& cols,
                                 std::span<const SystemView> systems) {
  const int nranks = rt.nranks();
  EXW_REQUIRE(checked_narrow<int>(systems.size()) == nranks,
              "one system view per rank");
  AssemblyPlan plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.ranks_.resize(static_cast<std::size_t>(nranks));
  plan.structure_.resize(static_cast<std::size_t>(nranks));

  // Send composition (cheap, serial): one contiguous run per owner.
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& sv = systems[static_cast<std::size_t>(r)];
    auto& p = plan.ranks_[static_cast<std::size_t>(r)];
    p.mat_sends = owner_runs(sv.shared->rows, rows);
    p.rhs_sends = owner_runs(sv.rhs_shared->rows, rows);
    p.n_own = sv.owned->nnz();
    p.rhs_n_own = sv.rhs_owned->size();
    EXW_REQUIRE(p.rhs_n_own == static_cast<std::size_t>(rows.local_size(r)),
                "owned RHS must be dense over local rows");
  }

  // Receive composition: build-time replacement for the cold path's
  // nnz_recv allreduce; charge the same collective.
  std::vector<std::vector<Slice>*> mat_sends_all;
  std::vector<std::vector<Slice>*> rhs_sends_all;
  std::vector<GlobalIndex> send_counts(static_cast<std::size_t>(nranks),
                                       GlobalIndex{0});
  for (RankId r{0}; r.value() < nranks; ++r) {
    auto& p = plan.ranks_[static_cast<std::size_t>(r)];
    mat_sends_all.push_back(&p.mat_sends);
    rhs_sends_all.push_back(&p.rhs_sends);
    send_counts[static_cast<std::size_t>(r)] =
        GlobalIndex{systems[static_cast<std::size_t>(r)].shared->nnz()};
  }
  (void)rt.allreduce_sum(send_counts);
  for (RankId r{0}; r.value() < nranks; ++r) {
    auto& p = plan.ranks_[static_cast<std::size_t>(r)];
    p.mat_recvs = recv_runs(r, mat_sends_all);
    p.rhs_recvs = recv_runs(r, rhs_sends_all);
    p.n_recv = p.mat_recvs.empty() ? 0 : p.mat_recvs.back().end;
    p.rhs_n_recv = p.rhs_recvs.empty() ? 0 : p.rhs_recvs.back().end;
    p.stacked.assign(p.n_own + p.n_recv, 0.0);
    p.rhs_recv.assign(p.rhs_n_recv, 0.0);
  }

  // Per-rank structural pass (the expensive half a cold assembly pays
  // every iteration): stack the pattern keys, sort once, freeze the
  // permutation / segments / destinations, split the unique pattern.
  auto& tracer = rt.tracer();
  rt.parallel_for_ranks([&](RankId r) {
    auto& p = plan.ranks_[static_cast<std::size_t>(r)];
    const auto& own = *systems[static_cast<std::size_t>(r)].owned;

    // Stacked keys: owned triples first, then receives in slice order
    // (ascending src), mirroring Algorithm 1's stacking.
    std::vector<GlobalIndex> krow;
    std::vector<GlobalIndex> kcol;
    krow.reserve(p.n_own + p.n_recv);
    kcol.reserve(p.n_own + p.n_recv);
    krow.insert(krow.end(), own.rows.begin(), own.rows.end());
    kcol.insert(kcol.end(), own.cols.begin(), own.cols.end());
    for (const auto& rv : p.mat_recvs) {
      const auto& src_sh = *systems[static_cast<std::size_t>(rv.peer)].shared;
      const Slice* s =
          find_send(plan.ranks_[static_cast<std::size_t>(rv.peer)].mat_sends, r);
      EXW_REQUIRE(s != nullptr, "receive slice without a matching send");
      krow.insert(krow.end(),
                  src_sh.rows.begin() + static_cast<std::ptrdiff_t>(s->begin),
                  src_sh.rows.begin() + static_cast<std::ptrdiff_t>(s->end));
      kcol.insert(kcol.end(),
                  src_sh.cols.begin() + static_cast<std::ptrdiff_t>(s->begin),
                  src_sh.cols.begin() + static_cast<std::ptrdiff_t>(s->end));
    }
    EXW_REQUIRE(krow.size() == p.n_own + p.n_recv,
                "stacked key count mismatch");

    // Freeze stable_sort_by_key + reduce_by_key as permutation + segments.
    p.mat_fill.perm = sparse::prim::sort_permutation2(krow, kcol);
    p.mat_fill.seg_ptr = sparse::prim::segment_pointers(
        p.mat_fill.perm, [&](std::size_t a, std::size_t b) {
          return krow[a] == krow[b] && kcol[a] == kcol[b];
        });
    charge_sort(tracer, r, krow.size(), kTripleBytes);

    // Unique assembled pattern (row-major sorted) and each entry's final
    // home. Destinations follow split_diag_offd's sequential fill order:
    // walking entries in sorted order, diag and offd positions are just
    // running counters within their block.
    const std::size_t nseg =
        p.mat_fill.seg_ptr.empty() ? 0 : p.mat_fill.seg_ptr.size() - 1;
    sparse::Coo pattern;
    pattern.reserve(nseg);
    p.mat_fill.dest.resize(nseg);
    const GlobalIndex col0 = cols.first_row(r);
    const GlobalIndex col1 = cols.end_row(r);
    std::int64_t dk = 0;
    std::int64_t ok = 0;
    for (std::size_t s = 0; s < nseg; ++s) {
      const std::size_t slot = p.mat_fill.perm[p.mat_fill.seg_ptr[s]];
      pattern.push(krow[slot], kcol[slot], 0.0);
      if (kcol[slot] >= col0 && kcol[slot] < col1) {
        p.mat_fill.dest[s] = dk;
        ++dk;
      } else {
        p.mat_fill.dest[s] = -ok - 1;
        ++ok;
      }
    }
    charge_stream(tracer, r, krow.size(), kTripleBytes);
    plan.structure_[static_cast<std::size_t>(r)] =
        split_diag_offd(pattern, rows, cols, r);
    charge_stream(tracer, r, pattern.nnz(), kTripleBytes);

    // RHS plan: Algorithm 2 sorts only the received entries.
    std::vector<GlobalIndex> rrow;
    rrow.reserve(p.rhs_n_recv);
    for (const auto& rv : p.rhs_recvs) {
      const auto& src_sh =
          *systems[static_cast<std::size_t>(rv.peer)].rhs_shared;
      const Slice* s =
          find_send(plan.ranks_[static_cast<std::size_t>(rv.peer)].rhs_sends, r);
      EXW_REQUIRE(s != nullptr, "RHS receive slice without a matching send");
      rrow.insert(rrow.end(),
                  src_sh.rows.begin() + static_cast<std::ptrdiff_t>(s->begin),
                  src_sh.rows.begin() + static_cast<std::ptrdiff_t>(s->end));
    }
    EXW_REQUIRE(rrow.size() == p.rhs_n_recv, "stacked RHS key count mismatch");
    p.rhs_fill.perm =
        sparse::prim::sort_permutation(rrow, std::less<GlobalIndex>{});
    p.rhs_fill.seg_ptr = sparse::prim::segment_pointers(
        p.rhs_fill.perm,
        [&](std::size_t a, std::size_t b) { return rrow[a] == rrow[b]; });
    charge_sort(tracer, r, rrow.size(), kPairBytes);
    const std::size_t nrseg =
        p.rhs_fill.seg_ptr.empty() ? 0 : p.rhs_fill.seg_ptr.size() - 1;
    p.rhs_fill.dest.resize(nrseg);
    for (std::size_t s = 0; s < nrseg; ++s) {
      const std::size_t slot = p.rhs_fill.perm[p.rhs_fill.seg_ptr[s]];
      p.rhs_fill.dest[s] = rows.to_local(r, rrow[slot]);
    }
    charge_stream(tracer, r, rrow.size(), kPairBytes);
  });
  return plan;
}

linalg::ParCsr AssemblyPlan::create_matrix(par::Runtime& rt) const {
  EXW_REQUIRE(valid(), "assembly plan not built");
  return linalg::ParCsr(rt, rows_, cols_, structure_);
}

linalg::ParVector AssemblyPlan::create_vector(par::Runtime& rt) const {
  EXW_REQUIRE(valid(), "assembly plan not built");
  return linalg::ParVector(rt, rows_);
}

EXW_WARM_FN
void AssemblyPlan::refill_matrix(par::Runtime& rt,
                                 std::span<const SystemView> systems,
                                 linalg::ParCsr& a) const {
  EXW_PURITY_REGION("assembly-refill-matrix");
  EXW_REQUIRE(valid(), "assembly plan not built");
  EXW_REQUIRE(systems.size() == ranks_.size(), "one system view per rank");
  auto& tracer = rt.tracer();

  // Each sender copies its shared values straight into the receivers'
  // stacked streams, one message per neighbor pair (structure frozen: no
  // row/col traffic, no counts allreduce), and charges its copies as one
  // kernel with its messages at once.
  stamp_ = tracer.stamp();
  rt.parallel_for_ranks([&](RankId r) {
    const auto& p = ranks_[static_cast<std::size_t>(r)];
    const auto& sh = *systems[static_cast<std::size_t>(r)].shared;
    const std::size_t n_shared = p.mat_sends.empty() ? 0 : p.mat_sends.back().end;
    EXW_REQUIRE(sh.nnz() == n_shared,
                "assembly plan is stale: shared triple count changed");
    perf::Tally tally;
    for (const auto& s : p.mat_sends) {
      const RankPlan& dst = ranks_[static_cast<std::size_t>(s.peer)];
      const std::size_t count = s.end - s.begin;
      std::copy_n(sh.vals.begin() + static_cast<std::ptrdiff_t>(s.begin), count,
                  dst.stacked.begin() + static_cast<std::ptrdiff_t>(
                                            dst.n_own + dst.mat_recvs[s.slot].begin));
      rt.channel_sent(r, s.peer, tags::kPlanMatVals, count,
                      count * sizeof(Real), tally,
                      "AssemblyPlan::refill_matrix");
    }
    // The slices tile the shared values: one copy kernel over all of them.
    if (!p.mat_sends.empty()) tally_stream(tally, n_shared, sizeof(Real));
    tracer.charge_sent(r, tally);
  });

  // Stack the owned values in front of the received ones and
  // segmented-sum them into place.
  rt.parallel_for_ranks([&](RankId r) {
    const auto& p = ranks_[static_cast<std::size_t>(r)];
    const auto& own = *systems[static_cast<std::size_t>(r)].owned;
    EXW_REQUIRE(own.nnz() == p.n_own,
                "assembly plan is stale: owned triple count changed");
    std::copy(own.vals.begin(), own.vals.end(), p.stacked.begin());
    perf::Tally tally;
    for (const auto& s : p.mat_recvs) {
      const std::size_t count = s.end - s.begin;
      rt.channel_received(r, s.peer, tags::kPlanMatVals, count,
                          count * sizeof(Real), stamp_, tally,
                          "AssemblyPlan::refill_matrix");
    }
    tracer.charge_received(r, tally, stamp_);
    charge_stream(tracer, r, p.stacked.size(), sizeof(Real));
    a.set_values_from_plan(r, p.mat_fill, p.stacked);
  });
}

EXW_WARM_FN
void AssemblyPlan::refill_vector(par::Runtime& rt,
                                 std::span<const SystemView> systems,
                                 linalg::ParVector& b) const {
  EXW_PURITY_REGION("assembly-refill-vector");
  EXW_REQUIRE(valid(), "assembly plan not built");
  EXW_REQUIRE(systems.size() == ranks_.size(), "one system view per rank");
  auto& tracer = rt.tracer();

  stamp_ = tracer.stamp();
  rt.parallel_for_ranks([&](RankId r) {
    const auto& p = ranks_[static_cast<std::size_t>(r)];
    const auto& sh = *systems[static_cast<std::size_t>(r)].rhs_shared;
    const std::size_t n_shared = p.rhs_sends.empty() ? 0 : p.rhs_sends.back().end;
    EXW_REQUIRE(sh.size() == n_shared,
                "assembly plan is stale: shared RHS count changed");
    perf::Tally tally;
    for (const auto& s : p.rhs_sends) {
      const RankPlan& dst = ranks_[static_cast<std::size_t>(s.peer)];
      const std::size_t count = s.end - s.begin;
      std::copy_n(sh.vals.begin() + static_cast<std::ptrdiff_t>(s.begin), count,
                  dst.rhs_recv.begin() + static_cast<std::ptrdiff_t>(
                                             dst.rhs_recvs[s.slot].begin));
      rt.channel_sent(r, s.peer, tags::kPlanRhsVals, count,
                      count * sizeof(Real), tally,
                      "AssemblyPlan::refill_vector");
    }
    if (!p.rhs_sends.empty()) tally_stream(tally, n_shared, sizeof(Real));
    tracer.charge_sent(r, tally);
  });

  rt.parallel_for_ranks([&](RankId r) {
    const auto& p = ranks_[static_cast<std::size_t>(r)];
    const auto& own = *systems[static_cast<std::size_t>(r)].rhs_owned;
    EXW_REQUIRE(own.size() == p.rhs_n_own,
                "assembly plan is stale: owned RHS size changed");
    perf::Tally tally;
    for (const auto& s : p.rhs_recvs) {
      const std::size_t count = s.end - s.begin;
      rt.channel_received(r, s.peer, tags::kPlanRhsVals, count,
                          count * sizeof(Real), stamp_, tally,
                          "AssemblyPlan::refill_vector");
    }
    tracer.charge_received(r, tally, stamp_);
    b.set_values_from_plan(r, own, p.rhs_fill, p.rhs_recv);
  });
}

}  // namespace exw::assembly
