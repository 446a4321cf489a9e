#pragma once
/// \file coarsen.hpp
/// PMIS coarsening (paper §4.1).
///
/// "BoomerAMG currently only provides the parallel maximal independent
/// set (PMIS) coarsening on GPUs, which is modified from Luby's algorithm
/// for finding maximal independent sets using random numbers. The process
/// of selecting coarse points in this algorithm is massively parallel."
///
/// Each point gets the measure w(i) = |{j : S_ji strong}| + rand(i); in
/// every round, undecided points that are local maxima of w over their
/// undecided strong neighborhood (symmetrized S) become C-points, and
/// undecided points that strongly depend on a new C-point become
/// F-points. Random values are counter-based hashes of the *global* row
/// id, so the coarse grid is independent of the rank count (cuRAND's role
/// in the paper, made reproducible).
///
/// Every step runs as rank bodies on the pool, each writing only its own
/// rows: the strong graph (two passes), the measures, both phases of
/// every round and the coarse numbering. Bodies read neighbor state from
/// global arrays written in an earlier region, and each round charges
/// one (w, cf) boundary exchange — the values are identical to what
/// owner-pushed halo messages would deliver.

#include <vector>

#include "amg/soc.hpp"
#include "common/types.hpp"
#include "linalg/parcsr.hpp"
#include "par/partition.hpp"

namespace exw::amg {

enum class CF : std::int8_t { kFine = -1, kUndecided = 0, kCoarse = 1 };

struct Coarsening {
  std::vector<std::vector<CF>> cf;  ///< [rank][local row]
  par::RowPartition coarse_rows;    ///< coarse DoF ownership
  /// [rank][local row] -> global coarse id (kInvalidGlobal for F points).
  std::vector<std::vector<GlobalIndex>> coarse_id;
  int rounds = 0;  ///< PMIS rounds to convergence

  GlobalIndex coarse_size() const { return coarse_rows.global_size(); }
  CF cf_of(const par::RowPartition& rows, GlobalIndex g) const {
    const RankId r = rows.rank_of(g);
    return cf[static_cast<std::size_t>(r)][static_cast<std::size_t>(rows.to_local(r, g))];
  }
  GlobalIndex coarse_of(const par::RowPartition& rows, GlobalIndex g) const {
    const RankId r = rows.rank_of(g);
    return coarse_id[static_cast<std::size_t>(r)][static_cast<std::size_t>(rows.to_local(r, g))];
  }
};

/// Run PMIS on S(A).
Coarsening pmis(const linalg::ParCsr& a, const Strength& s,
                std::uint64_t seed);

/// Agglomerate a coarse grid that averages fewer than `min_rows_per_rank`
/// rows per rank (0: never): each group of k = ceil(min_rows_per_rank /
/// average) consecutive ranks hands its coarse rows to the group's first
/// rank. Only `coarse_rows` changes. pmis numbers coarse points
/// contiguously in rank order, so the leader's range is exactly its
/// group's ids and no coarse id moves.
void agglomerate(Coarsening& c, int min_rows_per_rank);

}  // namespace exw::amg
