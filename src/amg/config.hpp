#pragma once
/// \file config.hpp
/// BoomerAMG-style configuration knobs (paper §4, §5.1 "parameter tuning
/// of the BoomerAMG preconditioner ... yielded modest but nontrivial
/// gains").

#include <cstdint>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "sparse/spgemm.hpp"

namespace exw::amg {

/// Interpolation operators of §4.1.
enum class InterpType : std::uint8_t {
  kDirect,   ///< classical direct interpolation
  kBamg,     ///< BAMG-direct closed form (Eq. 2)
  kMmExt,    ///< matrix-matrix extended ("MM-ext")
  kMmExtI,   ///< "MM-ext+i" variant (includes the diagonal i-connection)
};

/// Smoothers of §4.2. The values are fixed (0 and 1 were the deleted
/// Jacobi and l1-Jacobi smoothers) so a value keeps naming one smoother;
/// gtest prints parameterised test instances by this byte.
enum class SmootherType : std::uint8_t {
  kHybridGs = 2,    ///< process-local true Gauss-Seidel, Jacobi across ranks
  kTwoStageGs = 3,  ///< two-stage GS: inner Jacobi-Richardson sweeps (Eqs. 5-7)
  kSgs2 = 4,        ///< two-stage *symmetric* GS, compact form (Eqs. 11-14)
};

/// The V-cycle's smoother is fixed, not configured: one pre- and one
/// post-sweep of two-stage GS with one inner Jacobi-Richardson sweep.
struct AmgConfig {
  Real strong_threshold = 0.25;  ///< SoC threshold theta
  int agg_levels = 2;   ///< aggressive (two-stage) coarsening on first N levels
  InterpType interp = InterpType::kMmExt;
  int pmax = 4;                ///< max interpolation entries per row (0: no cap)
  int max_levels = 20;
  GlobalIndex max_coarse_size{64};  ///< direct-solve threshold
  sparse::SpGemmAlgo spgemm = sparse::SpGemmAlgo::kHash;
  std::uint64_t pmis_seed = 42;
  /// Coarse-level agglomeration threshold T (DESIGN.md §18): a coarse
  /// grid with fewer than T rows per rank on average moves each group of
  /// ceil(T / average) consecutive ranks' rows onto the group's first
  /// rank. 0 keeps every level on every rank.
  int min_coarse_rows_per_rank = 0;
  /// Storage precision of the hierarchy's operators, transfers, and work
  /// vectors (DESIGN.md §16). kF32 runs the whole V-cycle — smoother
  /// streams, halo payloads, transfer wires — through FP32 storage with
  /// FP64 arithmetic between rounded stores, the iterative-refinement
  /// split of Oliani et al.; the outer Krylov solve stays FP64. Part of
  /// the cache key: flipping it forces a structural rebuild.
  Precision precision = Precision::kF64;

  /// Memberwise equality — the HierarchyCache key: any knob change forces
  /// a structural rebuild.
  bool operator==(const AmgConfig&) const = default;
};

}  // namespace exw::amg
