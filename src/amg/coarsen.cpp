#include "amg/coarsen.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace exw::amg {

namespace {

/// One rank's rows of the strong graph, CSR over local rows in global
/// ids: the dependencies (S's row, F assignment) and the symmetrized
/// neighborhoods (dependencies and influencers, sorted and
/// duplicate-free: the MIS test).
struct StrongRows {
  std::vector<std::size_t> dep_xadj;
  std::vector<GlobalIndex> dep_adj;
  std::vector<std::size_t> xadj;
  std::vector<GlobalIndex> adj;
  /// This rank's dependencies reversed: (j, i) for every strong S_ij of
  /// its rows, bucketed by j's owner; bucket o is
  /// [rev_ptr[o], rev_ptr[o + 1]).
  std::vector<std::size_t> rev_ptr;
  std::vector<GlobalIndex> rev_to;
  std::vector<GlobalIndex> rev_from;
  double boundary_degree = 0;  ///< strong offd couplings, for comm charging
};

/// Rank r's dependency rows and its reverse edges, bucketed by owner.
void build_dependencies(const linalg::ParCsr& a, const Strength& s, RankId r,
                        StrongRows& g) {
  const auto& rows = a.rows();
  const auto& b = a.block(r);
  const GlobalIndex row0 = rows.first_row(r);
  // Owner of each offd column (ascending, so owners ascend too).
  std::vector<std::size_t> col_owner(b.col_map.size());
  for (std::size_t q = 0; q < b.col_map.size(); ++q) {
    col_owner[q] = static_cast<std::size_t>(rows.rank_of(b.col_map[q]));
  }
  const auto ri = static_cast<std::size_t>(r);
  g.dep_xadj.assign(static_cast<std::size_t>(b.diag.nrows()) + 1, 0);
  g.rev_ptr.assign(static_cast<std::size_t>(a.nranks()) + 1, 0);
  for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
    std::size_t n = 0;
    for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
      n += s.strong_diag(r, static_cast<std::size_t>(k)) ? 1 : 0;
    }
    g.rev_ptr[ri + 1] += n;
    for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
      if (!s.strong_offd(r, static_cast<std::size_t>(k))) continue;
      ++n;
      ++g.rev_ptr[col_owner[static_cast<std::size_t>(b.offd.cols()[k])] + 1];
    }
    g.dep_xadj[static_cast<std::size_t>(i) + 1] =
        g.dep_xadj[static_cast<std::size_t>(i)] + n;
  }
  for (std::size_t o = 0; o + 1 < g.rev_ptr.size(); ++o) {
    g.rev_ptr[o + 1] += g.rev_ptr[o];
  }
  g.dep_adj.resize(g.dep_xadj.back());
  g.rev_to.resize(g.dep_xadj.back());
  g.rev_from.resize(g.dep_xadj.back());
  std::vector<std::size_t> next(g.rev_ptr.begin(), g.rev_ptr.end() - 1);
  std::size_t d = 0;
  const auto reverse = [&](std::size_t owner, GlobalIndex to,
                           GlobalIndex from) {
    const std::size_t at = next[owner]++;
    g.rev_to[at] = to;
    g.rev_from[at] = from;
  };
  for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
    const GlobalIndex gi = row0 + i.value();
    for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
      if (!s.strong_diag(r, static_cast<std::size_t>(k))) continue;
      const GlobalIndex gj = row0 + b.diag.cols()[k].value();
      g.dep_adj[d++] = gj;
      reverse(ri, gj, gi);
    }
    for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
      if (!s.strong_offd(r, static_cast<std::size_t>(k))) continue;
      const auto q = static_cast<std::size_t>(b.offd.cols()[k]);
      const GlobalIndex gj = b.col_map[q];
      g.dep_adj[d++] = gj;
      reverse(col_owner[q], gj, gi);
      g.boundary_degree += 1.0;
    }
  }
}

/// Owner o's symmetrized rows: its dependencies merged with every reverse
/// edge bucketed for o, then sorted and de-duplicated per row. Returns,
/// per row, the number of rows it strongly influences. Writes only
/// graph[o]'s neighborhoods; reads every rank's buckets.
std::vector<std::size_t> build_neighborhoods(const par::RowPartition& rows,
                                             std::vector<StrongRows>& graph,
                                             RankId o) {
  const auto oi = static_cast<std::size_t>(o);
  StrongRows& g = graph[oi];
  const GlobalIndex row0 = rows.first_row(o);
  const auto nlocal = static_cast<std::size_t>(rows.local_size(o));
  std::vector<std::size_t> influence(nlocal, 0);
  for (const StrongRows& src : graph) {
    for (std::size_t e = src.rev_ptr[oi]; e < src.rev_ptr[oi + 1]; ++e) {
      ++influence[static_cast<std::size_t>(src.rev_to[e] - row0)];
    }
  }
  std::vector<std::size_t> start(nlocal + 1, 0);
  for (std::size_t i = 0; i < nlocal; ++i) {
    start[i + 1] =
        start[i] + (g.dep_xadj[i + 1] - g.dep_xadj[i]) + influence[i];
  }
  std::vector<GlobalIndex> merged(start.back());
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < nlocal; ++i) {
    for (std::size_t k = g.dep_xadj[i]; k < g.dep_xadj[i + 1]; ++k) {
      merged[next[i]++] = g.dep_adj[k];
    }
  }
  for (const StrongRows& src : graph) {
    for (std::size_t e = src.rev_ptr[oi]; e < src.rev_ptr[oi + 1]; ++e) {
      merged[next[static_cast<std::size_t>(src.rev_to[e] - row0)]++] =
          src.rev_from[e];
    }
  }
  g.xadj.assign(nlocal + 1, 0);
  g.adj.clear();
  g.adj.reserve(merged.size());
  for (std::size_t i = 0; i < nlocal; ++i) {
    const auto first = merged.begin() + static_cast<std::ptrdiff_t>(start[i]);
    const auto last =
        merged.begin() + static_cast<std::ptrdiff_t>(start[i + 1]);
    std::sort(first, last);
    g.adj.insert(g.adj.end(), first, std::unique(first, last));
    g.xadj[i + 1] = g.adj.size();
  }
  return influence;
}

}  // namespace

Coarsening pmis(const linalg::ParCsr& a, const Strength& s,
                std::uint64_t seed) {
  const auto nranks = static_cast<std::size_t>(a.nranks());
  const auto& rows = a.rows();
  par::Runtime& rt = a.runtime();
  auto& tracer = rt.tracer();

  // The strong graph, in two passes of rank bodies: each rank builds its
  // dependency rows and buckets the reversed edges by owner; then each
  // owner merges the edges bucketed for it into its symmetrized rows.
  std::vector<StrongRows> graph(nranks);
  rt.parallel_for_ranks([&](RankId r) {
    build_dependencies(a, s, r, graph[static_cast<std::size_t>(r)]);
  });

  // The measure w(i) = (#rows i strongly influences) + rand(global id),
  // written by i's owner. Isolated / purely-weak rows (e.g. Dirichlet
  // identity rows) become F-points immediately: nothing interpolates
  // from them and the smoother resolves them exactly. Every body writes
  // only its own rows of the global arrays.
  const auto n_global = static_cast<std::size_t>(rows.global_size());
  std::vector<double> w(n_global, 0.0);
  std::vector<CF> state(n_global, CF::kUndecided);
  rt.parallel_for_ranks([&](RankId r) {
    const auto influence = build_neighborhoods(rows, graph, r);
    const auto& g = graph[static_cast<std::size_t>(r)];
    const auto row0 = static_cast<std::size_t>(rows.first_row(r));
    for (std::size_t i = 0; i < influence.size(); ++i) {
      if (g.xadj[i + 1] == g.xadj[i]) {
        state[row0 + i] = CF::kFine;  // no strong coupling either way
        continue;
      }
      w[row0 + i] =
          static_cast<double>(influence[i]) + uniform01(seed, row0 + i);
    }
  });
  tracer.collective(sizeof(double));  // measure reduction

  Coarsening out;
  out.cf.resize(nranks);
  // Phase 1 reads `state` and writes each body's rows of `marked`; phase 2
  // reads `marked` and writes each body's rows of `state`: no body reads
  // a row another body is writing.
  std::vector<CF> marked(n_global, CF::kUndecided);
  std::vector<std::uint8_t> undecided(nranks, 1);
  bool any_undecided = true;
  while (any_undecided) {
    out.rounds += 1;
    tracer.collective(sizeof(GlobalIndex));  // "any undecided" reduction

    // Phase 1: local maxima of w over undecided strong neighborhoods
    // become C-points (one independent-set round of Luby's algorithm),
    // after the charge of this round's boundary (w, cf) exchange.
    rt.parallel_for_ranks([&](RankId r) {
      const auto& g = graph[static_cast<std::size_t>(r)];
      if (g.boundary_degree > 0) {
        tracer.kernel(r, g.boundary_degree,
                      g.boundary_degree * (sizeof(double) + 1.0));
      }
      const auto row0 = static_cast<std::size_t>(rows.first_row(r));
      for (std::size_t i = 0; i + 1 < g.xadj.size(); ++i) {
        const std::size_t gi = row0 + i;
        marked[gi] = state[gi];
        if (state[gi] != CF::kUndecided) continue;
        bool is_max = true;
        for (std::size_t k = g.xadj[i]; k < g.xadj[i + 1]; ++k) {
          const auto gj = static_cast<std::size_t>(g.adj[k]);
          if (state[gj] == CF::kUndecided && w[gj] >= w[gi]) {
            is_max = false;
            break;
          }
        }
        if (is_max) marked[gi] = CF::kCoarse;
      }
      tracer.kernel(r, static_cast<double>(g.xadj.back()),
                    static_cast<double>(g.xadj.back()) * sizeof(GlobalIndex));
    });

    // Phase 2: undecided points strongly depending on a C-point become F.
    rt.parallel_for_ranks([&](RankId r) {
      const auto& g = graph[static_cast<std::size_t>(r)];
      const auto row0 = static_cast<std::size_t>(rows.first_row(r));
      bool open = false;
      for (std::size_t i = 0; i + 1 < g.dep_xadj.size(); ++i) {
        const std::size_t gi = row0 + i;
        state[gi] = marked[gi];
        if (marked[gi] != CF::kUndecided) continue;
        for (std::size_t k = g.dep_xadj[i]; k < g.dep_xadj[i + 1]; ++k) {
          if (marked[static_cast<std::size_t>(g.dep_adj[k])] == CF::kCoarse) {
            state[gi] = CF::kFine;
            break;
          }
        }
        open = open || state[gi] == CF::kUndecided;
      }
      undecided[static_cast<std::size_t>(r)] = open ? 1 : 0;
    });
    any_undecided =
        std::find(undecided.begin(), undecided.end(), 1) != undecided.end();
    EXW_REQUIRE(out.rounds < 1000, "PMIS failed to converge");
  }

  // Coarse numbering: per-rank contiguous, in local row order.
  std::vector<GlobalIndex> counts(nranks, GlobalIndex{0});
  rt.parallel_for_ranks([&](RankId r) {
    const auto first = state.begin() + rows.first_row(r).value();
    auto& cf = out.cf[static_cast<std::size_t>(r)];
    cf.assign(first, first + rows.local_size(r).value());
    counts[static_cast<std::size_t>(r)] =
        GlobalIndex{std::count(cf.begin(), cf.end(), CF::kCoarse)};
  });
  out.coarse_rows = par::RowPartition::from_counts(counts);
  out.coarse_id.resize(nranks);
  rt.parallel_for_ranks([&](RankId r) {
    const auto& cf = out.cf[static_cast<std::size_t>(r)];
    auto& ids = out.coarse_id[static_cast<std::size_t>(r)];
    ids.assign(cf.size(), kInvalidGlobal);
    GlobalIndex next = out.coarse_rows.first_row(r);
    for (std::size_t i = 0; i < cf.size(); ++i) {
      if (cf[i] == CF::kCoarse) ids[i] = next++;
    }
  });
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
