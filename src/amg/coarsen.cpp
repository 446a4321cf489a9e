#include "amg/coarsen.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exw::amg {

namespace {

/// Flattened per-rank adjacency over the symmetrized strong graph, in
/// global ids.
struct StrongGraph {
  // [rank] -> CSR over local rows.
  std::vector<std::vector<std::size_t>> xadj;
  std::vector<std::vector<GlobalIndex>> adj;       ///< symmetrized (MIS test)
  std::vector<std::vector<std::size_t>> dep_xadj;  ///< S-row only (F assignment)
  std::vector<std::vector<GlobalIndex>> dep_adj;
  std::vector<double> boundary_degree;  ///< per rank, for comm charging
};

StrongGraph build_strong_graph(const linalg::ParCsr& a, const Strength& s) {
  const int nranks = a.nranks();
  const auto& rows = a.rows();
  StrongGraph g;
  g.xadj.resize(static_cast<std::size_t>(nranks));
  g.adj.resize(static_cast<std::size_t>(nranks));
  g.dep_xadj.resize(static_cast<std::size_t>(nranks));
  g.dep_adj.resize(static_cast<std::size_t>(nranks));
  g.boundary_degree.assign(static_cast<std::size_t>(nranks), 0.0);

  // Per-local-row neighbor collection (dependencies = S row entries), plus
  // reversed edges for symmetrization.
  std::vector<std::vector<std::vector<GlobalIndex>>> nbr(
      static_cast<std::size_t>(nranks));
  std::vector<std::vector<std::vector<GlobalIndex>>> dep(
      static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    nbr[static_cast<std::size_t>(r)].resize(
        static_cast<std::size_t>(rows.local_size(r)));
    dep[static_cast<std::size_t>(r)].resize(
        static_cast<std::size_t>(rows.local_size(r)));
  }
  auto add_reverse = [&](GlobalIndex to, GlobalIndex from) {
    const RankId owner = rows.rank_of(to);
    nbr[static_cast<std::size_t>(owner)]
       [static_cast<std::size_t>(rows.to_local(owner, to))].push_back(from);
  };

  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& b = a.block(r);
    const GlobalIndex row0 = rows.first_row(r);
    for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
      const GlobalIndex gi = row0 + i.value();
      auto& ni = nbr[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      auto& di = dep[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        if (!s.strong_diag(r, static_cast<std::size_t>(k))) continue;
        const GlobalIndex gj =
            row0 + b.diag.cols()[k].value();
        ni.push_back(gj);
        di.push_back(gj);
        add_reverse(gj, gi);
      }
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        if (!s.strong_offd(r, static_cast<std::size_t>(k))) continue;
        const GlobalIndex gj =
            b.col_map[static_cast<std::size_t>(
                b.offd.cols()[k])];
        ni.push_back(gj);
        di.push_back(gj);
        add_reverse(gj, gi);
        g.boundary_degree[static_cast<std::size_t>(r)] += 1.0;
      }
    }
  }

  for (RankId r{0}; r.value() < nranks; ++r) {
    auto& xa = g.xadj[static_cast<std::size_t>(r)];
    auto& ad = g.adj[static_cast<std::size_t>(r)];
    auto& dxa = g.dep_xadj[static_cast<std::size_t>(r)];
    auto& dad = g.dep_adj[static_cast<std::size_t>(r)];
    xa.push_back(0);
    dxa.push_back(0);
    for (auto& list : nbr[static_cast<std::size_t>(r)]) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      ad.insert(ad.end(), list.begin(), list.end());
      xa.push_back(ad.size());
    }
    for (auto& list : dep[static_cast<std::size_t>(r)]) {
      dad.insert(dad.end(), list.begin(), list.end());
      dxa.push_back(dad.size());
    }
  }
  return g;
}

}  // namespace

Coarsening pmis(const linalg::ParCsr& a, const Strength& s,
                std::uint64_t seed) {
  const int nranks = a.nranks();
  const auto& rows = a.rows();
  auto& tracer = a.runtime().tracer();
  const StrongGraph graph = build_strong_graph(a, s);

  // Measures: w(i) = (#strongly-influenced by i) + rand(global id). The
  // influence count is the symmetrized degree minus the dependency degree
  // would undercount; compute it directly from reversed edges: it equals
  // |{j : S_ji}| which we obtain as (symmetrized adj) filtered against
  // dependencies is overkill — we instead count during graph build via the
  // reverse inserts, recovered here from degrees.
  const auto n_global = static_cast<std::size_t>(rows.global_size());
  std::vector<double> w(n_global, 0.0);
  std::vector<CF> state(n_global, CF::kUndecided);

  // Influence count: number of reverse edges delivered to each node. The
  // symmetrized neighbor list contains (deps ∪ influencers); recompute
  // influencers exactly by streaming dependencies once more.
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& dxa = graph.dep_xadj[static_cast<std::size_t>(r)];
    const auto& dad = graph.dep_adj[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < dad.size(); ++k) {
      w[static_cast<std::size_t>(dad[k])] += 1.0;
    }
    (void)dxa;
  }
  for (std::size_t g = 0; g < n_global; ++g) {
    // Isolated / purely-weak rows (e.g. Dirichlet identity rows) become
    // F-points immediately: nothing interpolates from them and the
    // smoother resolves them exactly.
    const RankId r = rows.rank_of(checked_narrow<GlobalIndex>(g));
    const auto li = static_cast<std::size_t>(
        rows.to_local(r, checked_narrow<GlobalIndex>(g)));
    const auto& xa = graph.xadj[static_cast<std::size_t>(r)];
    const bool isolated = xa[li + 1] == xa[li];
    if (isolated && w[g] == 0.0) {
      state[g] = CF::kFine;
      continue;
    }
    w[g] += uniform01(seed, g);
  }
  tracer.collective(sizeof(double));  // measure reduction

  Coarsening out;
  out.cf.resize(static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    out.cf[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(rows.local_size(r)), CF::kUndecided);
  }

  bool any_undecided = true;
  while (any_undecided) {
    out.rounds += 1;
    // Charge the boundary (w, cf) exchange for this round.
    for (RankId r{0}; r.value() < nranks; ++r) {
      const double deg = graph.boundary_degree[static_cast<std::size_t>(r)];
      if (deg > 0) {
        tracer.kernel(r, deg, deg * (sizeof(double) + 1.0));
      }
    }
    tracer.collective(sizeof(GlobalIndex));  // "any undecided" reduction

    // Phase 1: local maxima of w over undecided strong neighborhoods
    // become C-points (one independent-set round of Luby's algorithm).
    std::vector<GlobalIndex> new_c;
    for (RankId r{0}; r.value() < nranks; ++r) {
      const GlobalIndex row0 = rows.first_row(r);
      const auto& xa = graph.xadj[static_cast<std::size_t>(r)];
      const auto& ad = graph.adj[static_cast<std::size_t>(r)];
      for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
        const auto gi = static_cast<std::size_t>(row0 + i.value());
        if (state[gi] != CF::kUndecided) continue;
        bool is_max = true;
        for (std::size_t k = xa[static_cast<std::size_t>(i)];
             k < xa[static_cast<std::size_t>(i) + 1]; ++k) {
          const auto gj = static_cast<std::size_t>(ad[k]);
          if (state[gj] == CF::kUndecided && w[gj] >= w[gi]) {
            is_max = false;
            break;
          }
        }
        if (is_max) {
          new_c.push_back(checked_narrow<GlobalIndex>(gi));
        }
      }
      tracer.kernel(r, static_cast<double>(xa.back()),
                    static_cast<double>(xa.back()) * sizeof(GlobalIndex));
    }
    for (GlobalIndex c : new_c) {
      state[static_cast<std::size_t>(c)] = CF::kCoarse;
    }

    // Phase 2: undecided points strongly depending on a C-point become F.
    any_undecided = false;
    for (RankId r{0}; r.value() < nranks; ++r) {
      const GlobalIndex row0 = rows.first_row(r);
      const auto& dxa = graph.dep_xadj[static_cast<std::size_t>(r)];
      const auto& dad = graph.dep_adj[static_cast<std::size_t>(r)];
      for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
        const auto gi = static_cast<std::size_t>(row0 + i.value());
        if (state[gi] != CF::kUndecided) continue;
        for (std::size_t k = dxa[static_cast<std::size_t>(i)];
             k < dxa[static_cast<std::size_t>(i) + 1]; ++k) {
          if (state[static_cast<std::size_t>(dad[k])] == CF::kCoarse) {
            state[gi] = CF::kFine;
            break;
          }
        }
        if (state[gi] == CF::kUndecided) {
          any_undecided = true;
        }
      }
    }
    EXW_REQUIRE(out.rounds < 1000, "PMIS failed to converge");
  }

  // Coarse numbering: per-rank contiguous, in local row order.
  std::vector<GlobalIndex> counts(static_cast<std::size_t>(nranks), GlobalIndex{0});
  out.coarse_id.resize(static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    const GlobalIndex row0 = rows.first_row(r);
    auto& cf = out.cf[static_cast<std::size_t>(r)];
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      cf[static_cast<std::size_t>(i)] =
          state[static_cast<std::size_t>(row0 + i.value())];
      if (cf[static_cast<std::size_t>(i)] == CF::kCoarse) {
        counts[static_cast<std::size_t>(r)] += 1;
      }
    }
  }
  out.coarse_rows = par::RowPartition::from_counts(counts);
  for (RankId r{0}; r.value() < nranks; ++r) {
    auto& ids = out.coarse_id[static_cast<std::size_t>(r)];
    ids.assign(static_cast<std::size_t>(rows.local_size(r)), kInvalidGlobal);
    GlobalIndex next = out.coarse_rows.first_row(r);
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      if (out.cf[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] ==
          CF::kCoarse) {
        ids[static_cast<std::size_t>(i)] = next++;
      }
    }
  }
  return out;
}

void agglomerate(Coarsening& c, int min_rows_per_rank) {
  const std::int64_t n = c.coarse_size().value();
  const std::int64_t nranks = c.coarse_rows.nranks();
  if (min_rows_per_rank <= 0 || n == 0) return;
  // k = ceil(T / (n / nranks)), at most every rank in one group.
  const std::int64_t k = std::min(
      nranks, (std::int64_t{min_rows_per_rank} * nranks + n - 1) / n);
  if (k <= 1) return;
  std::vector<GlobalIndex> counts(static_cast<std::size_t>(nranks),
                                  GlobalIndex{0});
  for (RankId r{0}; r.value() < nranks; ++r) {
    counts[static_cast<std::size_t>(r.value() / k * k)] +=
        c.coarse_rows.local_size(r).value();
  }
  c.coarse_rows = par::RowPartition::from_counts(counts);
}

}  // namespace exw::amg
