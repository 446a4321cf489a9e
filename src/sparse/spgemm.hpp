#pragma once
/// \file spgemm.hpp
/// Sparse matrix-matrix multiplication: hash-based vs sort-based.
///
/// AMG setup cost is dominated by SpGEMM (interpolation products and the
/// Galerkin triple product, paper §4.1). The paper reports that hypre's
/// hash-based SpGEMM has "superior throughput" to the cuSPARSE (v10.2)
/// implementation; that vendor kernel is the classic expand-sort-compress
/// formulation. We implement both so the ablation can be reproduced:
///   * spgemm_hash: Gustavson row-by-row products accumulated in a
///     per-row open-addressing hash table (hypre's approach),
///   * spgemm_sort: expand all partial products into COO triples, then
///     stable_sort_by_key + reduce_by_key (cuSPARSE-style baseline).
/// These serial kernels run both. The distributed AMG products
/// (amg::galerkin_rap, amg::par_matmat) accumulate row by row with a
/// dense marker whatever the flavor: there SpGemmAlgo::kSort only prices
/// the sort-expand variant's extra traffic in the modeled charge, for the
/// SpGEMM ablation.

#include <cstdint>

#include "sparse/csr.hpp"

namespace exw::sparse {

enum class SpGemmAlgo : std::uint8_t {
  kHash,  ///< Gustavson + per-row hash accumulator (hypre-style)
  kSort,  ///< expand / sort / reduce (cuSPARSE-style baseline)
};

/// C = A * B.
Csr spgemm(const Csr& a, const Csr& b, SpGemmAlgo algo = SpGemmAlgo::kHash);

Csr spgemm_hash(const Csr& a, const Csr& b);
Csr spgemm_sort(const Csr& a, const Csr& b);

/// Galerkin triple product A_c = R * A * P (R given explicitly).
Csr triple_product(const Csr& r, const Csr& a, const Csr& p,
                   SpGemmAlgo algo = SpGemmAlgo::kHash);

/// Galerkin with R = P^T without forming P^T twice.
Csr rap(const Csr& a, const Csr& p, SpGemmAlgo algo = SpGemmAlgo::kHash);

/// Flop count of C = A*B (2 * sum of partial products); used by the
/// modeled-time layer to charge AMG setup kernels.
double spgemm_flops(const Csr& a, const Csr& b);

}  // namespace exw::sparse
