#pragma once
/// \file interp.hpp
/// Interpolation operators (paper §4.1).
///
/// * kDirect — classical direct interpolation: the interpolatory set of a
///   fine point i is a subset of its neighbors, weights determined by the
///   i-th equation alone ("straightforward to port to GPUs").
/// * kBamg — the BAMG-direct closed form of Eq. (2) for elliptic problems
///   whose near null space is the constant vector. We resolve the paper's
///   notation so that the closed form preserves constants *exactly* on
///   zero-row-sum rows: beta_i sums the strong F-neighbors; weak
///   neighbors (C and F) are lumped into the denominator.
/// * kMmExt — the matrix-matrix extended interpolation:
///       W = -[(D_FF + D_gamma)^-1 (A^s_FF + D_beta)] [D_beta^-1 A^s_FC]
///   with D_beta = diag(A^s_FC 1) and D_gamma = diag(A^w_FF 1 + A^w_FC 1),
///   implemented with the distributed external-row fetch + local sparse
///   products — a distance-2 operator that repairs PMIS F-points without
///   C-neighbors.
/// * kMmExtI — MM-ext followed by exact row-sum normalization (the "+i"
///   improvement to constant interpolation; simplification of the
///   original extended+i recorded in DESIGN.md).
///
/// P has fine rows / coarse columns; C-point rows are identity. Rows are
/// truncated to `pmax` largest-magnitude entries with row-sum-preserving
/// rescaling.

#include "amg/coarsen.hpp"
#include "amg/config.hpp"
#include "amg/soc.hpp"
#include "linalg/parcsr.hpp"

namespace exw::amg {

/// Build P for the given coarsening.
linalg::ParCsr build_interpolation(const linalg::ParCsr& a, const Strength& s,
                                   const Coarsening& c, const AmgConfig& cfg);

/// Truncate every row of P to its `pmax` largest |entries| (no-op for
/// pmax <= 0), rescaling to preserve the row sum.
void truncate_interpolation(linalg::ParCsr& p, int pmax);

}  // namespace exw::amg
