#pragma once
/// \file value_check.hpp
/// Bitwise change detection for a distributed matrix's values.
///
/// Under rigid rotor motion the pressure matrix stays bitwise constant
/// from one solve to the next, and so does every piece of state derived
/// from it: the AMG hierarchy (amg::HierarchyCache reuses it untouched)
/// and the basis of earlier pressure corrections (solver::GuessProjector
/// keeps projecting onto it). One ValueCheck per matrix, run once per
/// solve, tells both whether the matrix changed, so neither decision
/// hangs on the other.
///
/// The check compares each rank's diag/offd values with memcmp against an
/// FP64 copy — -0.0 differs from +0.0, and a NaN equals itself — and the
/// per-rank verdicts meet in a one-element allreduce, since every rank
/// must agree to keep its derived state. The copy is keyed on the matrix
/// structure (the caller's equation-graph generation): a new key is a
/// change without a comparison. DESIGN.md §12 gives the charges.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "linalg/parcsr.hpp"

namespace exw::linalg {

class ValueCheck {
 public:
  /// True unless `a` carries the stored key and every rank's diag/offd
  /// values equal the stored copy bit for bit; on true the copy becomes
  /// a's values under `key`. Comparing charges one value stream per rank
  /// and one allreduce, and updating the copy one more value stream per
  /// rank. The copy is sized on the first call and on a new structure,
  /// and never allocates otherwise.
  bool values_changed(const ParCsr& a, std::uint64_t key);

 private:
  void store(const ParCsr& a, std::uint64_t key);

  std::uint64_t key_ = 0;
  bool valid_ = false;
  /// Per rank, the FP64 [diag | offd] values of the last change.
  std::vector<RealVector> values_;
  /// Per-rank verdicts (1 = changed), the allreduce payload.
  std::vector<double> changed_;
};

}  // namespace exw::linalg
