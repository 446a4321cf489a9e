#pragma once
/// \file parvector.hpp
/// Distributed vector in 1-D block-row layout (hypre ParVector analogue).
///
/// Storage is per simulated rank; operations are driven globally and
/// charge the cost model: BLAS-1 kernels per rank plus one allreduce per
/// reduction (the collective count is what the one-reduce GMRES of the
/// paper §4.2 optimizes, so it must be faithful).

#include <span>
#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "par/contract.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"

namespace exw::linalg {

/// Precomputed in-place RHS-refill map for one rank (the Algorithm 2
/// analogue of ValueFillPlan, built by assembly::AssemblyPlan). Received
/// contribution u gathers recv[perm[seg_ptr[u] .. seg_ptr[u+1])] in
/// ascending permutation order — reduce_by_key's addend order, so
/// refills are bitwise-identical to the cold path — and scatter-adds
/// into local row dest[u].
struct VectorFillPlan {
  std::vector<std::size_t> perm;     ///< sorted position -> recv slot
  std::vector<std::size_t> seg_ptr;  ///< unique recv row -> range in perm
  std::vector<LocalIndex> dest;      ///< unique recv row -> local row
};

class ParVector {
 public:
  ParVector() = default;
  ParVector(par::Runtime& rt, par::RowPartition rows);

  const par::RowPartition& rows() const { return rows_; }
  GlobalIndex global_size() const { return rows_.global_size(); }
  int nranks() const { return rows_.nranks(); }

  /// Mutable access to rank r's local block. Inside a parallel rank
  /// region only rank r's own body may take it (contract-checked).
  RealVector& local(RankId r) {
    EXW_CONTRACT_CHECK_WRITE(r, "ParVector::local(r)");
    return local_[static_cast<std::size_t>(r)];
  }
  const RealVector& local(RankId r) const {
    return local_[static_cast<std::size_t>(r)];
  }

  /// Element access by global index (test/debug convenience; not charged,
  /// and a mutable at() bypasses the FP32 store-rounding invariant —
  /// charged operations below maintain it).
  Real& at(GlobalIndex g);
  Real at(GlobalIndex g) const;

  /// Storage precision of the value plane (DESIGN.md §16). Tagging a
  /// vector kF32 demotes its current contents and makes every charged
  /// store round through float (store_value), so the invariant "an FP32
  /// vector holds only FP32-representable values" holds and float halo
  /// serialization of its data is lossless. Untagged vectors are plain
  /// FP64. Tagging is a cold setup operation and is not charged.
  Precision value_precision() const { return prec_; }
  void set_value_precision(Precision p);

  /// Warm-path refill of rank r's local block: copy the dense owned
  /// values, then scatter-add the received contributions reduced through
  /// the frozen plan (Algorithm 2's sort/reduce replayed as a pure value
  /// pipeline; no sort, no allocation). Inside a parallel rank region
  /// only rank r's own body may call it (contract-checked).
  void set_values_from_plan(RankId r, std::span<const Real> owned,
                            const VectorFillPlan& plan,
                            std::span<const Real> recv);

  // --- charged distributed operations ------------------------------------
  void fill(Real value);
  void copy_from(const ParVector& other);
  void scale(Real alpha);
  /// this += alpha * x
  void axpy(Real alpha, const ParVector& x);
  double dot(const ParVector& other) const;
  double norm2() const;

  /// Gather to one dense global vector (tests only; not charged).
  RealVector gather() const;
  /// Scatter from a dense global vector (tests/setup; not charged).
  void scatter(const RealVector& global);

  par::Runtime& runtime() const { return *rt_; }

 private:
  par::Runtime* rt_ = nullptr;
  par::RowPartition rows_;
  std::vector<RealVector> local_;
  Precision prec_ = Precision::kF64;
};

}  // namespace exw::linalg
