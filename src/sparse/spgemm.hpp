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
#include <span>
#include <vector>

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

/// Frozen-product replay plan: the value half of a sparse product whose
/// structure has already been discovered once (the SpGEMM analogue of
/// assembly::AssemblyPlan's value-fill maps). Output entry e is
///
///   out[e] = sum over t in [seg_ptr[e], seg_ptr[e+1]) of
///            left[lslot[t]] * right[rslot[t]]
///
/// with the terms stored in the exact addend order the cold product used,
/// so a replay is bitwise-identical to re-running the product on the same
/// values. Replays do no hashing, no sorting, no searches and allocate
/// nothing — one streaming pass over the term lists.
struct ProductPlan {
  std::vector<std::size_t> seg_ptr;  ///< output entry -> term range
  std::vector<std::size_t> lslot;    ///< term -> index into `left`
  std::vector<std::size_t> rslot;    ///< term -> index into `right`
  /// Cold accumulators differ in their first addend: RAP's coarse rows
  /// seed each sum with the first value, as reduce_by_key does
  /// (zero_init = false), while its AP rows fold into an explicit 0.0
  /// (zero_init = true). The seed changes the bit pattern when the first
  /// product is -0.0, so replays must reproduce it.
  bool zero_init = false;

  std::size_t outputs() const { return seg_ptr.empty() ? 0 : seg_ptr.size() - 1; }
  std::size_t terms() const { return lslot.size(); }
  /// Multiply-add per term, matching the cold product's charge.
  double flops() const { return 2.0 * static_cast<double>(terms()); }

  /// Append one output entry whose terms are `ls/rs` (parallel arrays).
  void append(std::span<const std::size_t> ls, std::span<const std::size_t> rs);

  void replay(std::span<const Real> left, std::span<const Real> right,
              std::span<Real> out) const;
};

}  // namespace exw::sparse
