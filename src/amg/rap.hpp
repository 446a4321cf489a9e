#pragma once
/// \file rap.hpp
/// Distributed Galerkin triple product A_c = P^T A P (paper §4.1).
///
/// "Galerkin triple-matrix products are used to build coarse-level
/// operators. This computation is performed using parallel primitives
/// from Thrust and routines from cuSPARSE or hypre's own sparse kernels."
///
/// Formulation: each rank owns fine rows i of both A and P, fetches the
/// external P rows referenced by its A offd columns, and forms AP row by
/// row with a dense-marker accumulator (Gustavson's SpGEMM: each column's
/// terms summed in push order onto 0.0). It then accumulates the outer
/// products (P(i, c), AP(i, :)) straight into coarse rows: for each
/// column c of its P block, the terms of its fine rows i in ascending
/// order, the first seeding each sum. The result is the sorted,
/// duplicate-free COO set that expanding every outer product into triples
/// and stable-sorting and reducing them would give, bit for bit, without
/// the triples. Coarse rows owned elsewhere (P's offd columns) are exactly
/// the "shared" set of the paper's Algorithm 1, so global assembly of the
/// coarse operator reuses the same sort/reduce machinery as the
/// application matrices.

#include <vector>

#include "amg/config.hpp"
#include "linalg/parcsr.hpp"
#include "sparse/coo.hpp"
#include "sparse/spgemm.hpp"

namespace exw::amg {

/// Value-replay record of one galerkin_rap call. When a record is passed,
/// the cold product additionally freezes, per rank, the term lists behind
/// every intermediate AP entry and every coarse COO entry — grouped by
/// output entry in push order, which is the accumulators' addend order —
/// plus the interpolation values (including the fetched external P rows)
/// and the coarse COO sets. AmgHierarchy::refresh_values replays these
/// ProductPlans to refill the coarse operator's values from new fine
/// values with no graph traversal and no hashing, bitwise-identically to
/// re-running galerkin_rap against the frozen P. AP's entries are
/// numbered in row order and, within a row, in first-touch order.
struct RapRecord {
  struct Rank {
    /// AP values from (a_flat, p_flat); a_flat = [diag vals | offd vals]
    /// of the fine matrix, p_flat = [P diag | P offd | external rows].
    sparse::ProductPlan ap;
    sparse::ProductPlan owned;   ///< owned-entry values from (p_flat, AP)
    sparse::ProductPlan shared;  ///< shared-entry values from (p_flat, AP)
    RealVector p_flat;           ///< frozen interpolation values
    std::size_t a_diag_nnz = 0;  ///< fine-structure fingerprint
    std::size_t a_offd_nnz = 0;
  };
  std::vector<Rank> ranks;
  /// Sorted, duplicate-free coarse COO sets (structure frozen, values
  /// refilled by the replay and then assembled through an
  /// assembly::AssemblyPlan).
  std::vector<sparse::Coo> owned;
  std::vector<sparse::Coo> shared;
};

/// Coarse operator P^T A P. `algo` selects the SpGEMM flavor the modeled
/// charge prices (hash vs sort-expand, for the ablation); the host
/// computes both by row accumulation.
/// A non-null `record` freezes the value-replay structure as a side
/// effect (recording is host-side bookkeeping and charges nothing beyond
/// the cold product itself).
linalg::ParCsr galerkin_rap(const linalg::ParCsr& a, const linalg::ParCsr& p,
                            sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kHash,
                            RapRecord* record = nullptr);

/// Distributed C = A * B (result rows follow A's row partition; used for
/// the two-stage interpolation product P = P1 * P2 of §4.1), row by row
/// with the same dense-marker accumulator; `algo` prices the charge.
linalg::ParCsr par_matmat(const linalg::ParCsr& a, const linalg::ParCsr& b,
                          sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kHash);

}  // namespace exw::amg
