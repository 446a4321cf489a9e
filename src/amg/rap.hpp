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

#include "amg/config.hpp"
#include "linalg/parcsr.hpp"
#include "sparse/spgemm.hpp"

namespace exw::amg {

/// Coarse operator P^T A P. `algo` selects the SpGEMM flavor the modeled
/// charge prices (hash vs sort-expand, for the ablation); the host
/// computes both by row accumulation.
linalg::ParCsr galerkin_rap(const linalg::ParCsr& a, const linalg::ParCsr& p,
                            sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kHash);

/// Distributed C = A * B (result rows follow A's row partition; used for
/// the two-stage interpolation product P = P1 * P2 of §4.1), row by row
/// with the same dense-marker accumulator; `algo` prices the charge.
linalg::ParCsr par_matmat(const linalg::ParCsr& a, const linalg::ParCsr& b,
                          sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kHash);

}  // namespace exw::amg
