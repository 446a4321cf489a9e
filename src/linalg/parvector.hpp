#pragma once
/// \file parvector.hpp
/// Distributed vector in 1-D block-row layout (hypre ParVector analogue)
/// carrying `ncomp` component lanes over one row partition.
///
/// Storage is per simulated rank and SoA: lane c of rank r's block is the
/// contiguous plane [c*n, (c+1)*n) of one value array (n = local rows) —
/// the repeated-block layout of Plana-Riu et al. (PAPERS.md). A plain
/// vector is the 1-lane case; the fused momentum path carries u/v/w as 3
/// lanes. Operations are driven globally and charge the cost model: one
/// BLAS-1 kernel per rank over all lanes plus one allreduce per reduction
/// whatever the lane count (the collective count is what the one-reduce
/// GMRES of the paper §4.2 optimizes, so it must be faithful). Because
/// Runtime::allreduce_sum_vec reduces element-wise in rank order, every
/// lane's result is bitwise-identical to the same operation on a 1-lane
/// vector holding that lane alone.
///
/// The lane ops come in two groups: fused all-lane ops (optionally
/// masked, so converged GMRES components stop participating without
/// perturbing their lanes), and single-lane ops (GMRES's scrub of dead
/// basis planes, lane copies into and out of fused vectors). The scalar
/// conveniences (scale, axpy, dot, norm2) are the 1-lane case of the
/// fused ops.

#include <cstdint>
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
  /// A zero vector of `ncomp` lanes whose value plane has precision
  /// `prec`.
  ParVector(par::Runtime& rt, par::RowPartition rows, std::size_t ncomp = 1,
            Precision prec = Precision::kF64);

  std::size_t ncomp() const { return ncomp_; }
  const par::RowPartition& rows() const { return rows_; }
  GlobalIndex global_size() const { return rows_.global_size(); }
  int nranks() const { return rows_.nranks(); }
  par::Runtime& runtime() const { return *rt_; }

  /// Mutable access to rank r's full SoA block (ncomp * local rows).
  /// Inside a parallel rank region only rank r's own body may take it
  /// (contract-checked).
  RealVector& local(RankId r) {
    EXW_CONTRACT_CHECK_WRITE(r, "ParVector::local(r)");
    return local_[static_cast<std::size_t>(r)];
  }
  const RealVector& local(RankId r) const {
    return local_[static_cast<std::size_t>(r)];
  }

  /// One lane's contiguous plane of rank r's block.
  std::span<Real> lane_span(RankId r, std::size_t lane);
  std::span<const Real> lane_span(RankId r, std::size_t lane) const;

  /// Element access by (lane, global row) — test/setup convenience, not
  /// charged; a mutable at() bypasses the FP32 store-rounding invariant
  /// that the charged operations below maintain.
  Real& at(std::size_t lane, GlobalIndex g);
  Real at(std::size_t lane, GlobalIndex g) const;

  /// Storage precision of the value plane (DESIGN.md §16), fixed at
  /// construction. Every charged store into a kF32 vector rounds through
  /// float (store_value), so the invariant "an FP32 vector holds only
  /// FP32-representable values" holds and float halo serialization of its
  /// data is lossless. copy_lanes, scale_lanes, lane_fill, set_lane and
  /// extract_lane serve only the FP64 Krylov side and throw on a kF32
  /// operand.
  Precision value_precision() const { return prec_; }

  /// Warm-path refill of rank r's local block of a 1-lane vector: copy
  /// the dense owned values, then scatter-add the received contributions
  /// reduced through the frozen plan (Algorithm 2's sort/reduce replayed
  /// as a pure value pipeline; no sort, no allocation). Inside a parallel
  /// rank region only rank r's own body may call it (contract-checked).
  void set_values_from_plan(RankId r, std::span<const Real> owned,
                            const VectorFillPlan& plan,
                            std::span<const Real> recv);

  // --- fused charged operations (one kernel per rank, one collective
  // --- per reduction, regardless of lane count) --------------------------
  // The element-wise operations that fused solver bodies use also have a
  // per-rank form, taking the rank first: rank r's kernel with its
  // charge, which the whole-vector form runs in one region and which a
  // caller's own rank body calls directly. Inside a region only r's body
  // may call it (contract-checked).

  void fill(Real value);
  void fill(RankId r, Real value);
  void copy_from(const ParVector& other);
  void copy_from(RankId r, const ParVector& other);
  /// Lane c = (lane c of src) for lanes with mask[c] != 0; other lanes
  /// are untouched (same frozen-lane rule as scale_lanes/axpy_lanes).
  /// An empty mask means all lanes.
  void copy_lanes(const ParVector& src,
                  std::span<const std::uint8_t> mask = {});
  /// Lane c *= alpha[c]. Lanes with mask[c] == 0 are skipped entirely
  /// (not even multiplied by their alpha — a converged component's lane
  /// must stay bitwise-frozen). An empty mask means all lanes.
  void scale_lanes(std::span<const Real> alpha,
                   std::span<const std::uint8_t> mask = {});
  void scale_lanes(RankId r, std::span<const Real> alpha,
                   std::span<const std::uint8_t> mask = {});
  /// Lane c += alpha[c] * (lane c of x), same masking rule.
  void axpy_lanes(std::span<const Real> alpha, const ParVector& x,
                  std::span<const std::uint8_t> mask = {});
  void axpy_lanes(RankId r, std::span<const Real> alpha, const ParVector& x,
                  std::span<const std::uint8_t> mask = {});
  /// Per-lane dot products against `other`, one batched allreduce.
  std::vector<double> dots(const ParVector& other) const;
  /// Per-lane 2-norms, one batched allreduce.
  std::vector<double> norms() const;

  // --- lane-basis operations (fp64; a basis held as lanes [0, count)
  // --- of one vector, combined with 1-lane vectors) ----------------------

  /// Dots of lanes [0, count) against the 1-lane vector y, in one batched
  /// allreduce of `count` values (dots() pairs lane c with lane c of an
  /// equally wide vector instead). 1 <= count <= ncomp().
  std::vector<double> dots_against(const ParVector& y,
                                   std::size_t count) const;
  /// 1-lane this += sum over k < coef.size() of coef[k] * (lane k of x),
  /// one kernel. 1 <= coef.size() <= x.ncomp().
  void axpy_combination(std::span<const Real> coef, const ParVector& x);

  /// 1-lane forms of scale_lanes / axpy_lanes / dots / norms (throw on a
  /// multi-lane vector).
  void scale(Real alpha) { scale_lanes({&alpha, 1}); }
  /// this += alpha * x
  void axpy(Real alpha, const ParVector& x) { axpy_lanes({&alpha, 1}, x); }
  void axpy(RankId r, Real alpha, const ParVector& x) {
    axpy_lanes(r, {&alpha, 1}, x);
  }
  double dot(const ParVector& other) const;
  double norm2() const;

  // --- single-lane charged operations ------------------------------------

  void lane_fill(RankId r, std::size_t lane, Real value);
  double lane_norm2(std::size_t lane) const;
  /// Copy a 1-lane vector into / out of one lane (streaming copy charge).
  void set_lane(std::size_t lane, const ParVector& src);
  void set_lane(RankId r, std::size_t lane, const ParVector& src);
  void extract_lane(std::size_t lane, ParVector& dst) const;
  void extract_lane(RankId r, std::size_t lane, ParVector& dst) const;

  /// Gather one lane to a dense global vector (not charged).
  RealVector gather(std::size_t lane = 0) const;
  /// Same, into `out`, which must already hold global_size() values (no
  /// allocation: the AMG coarse solve gathers into a kept buffer).
  void gather(RealVector& out, std::size_t lane = 0) const;
  /// Scatter a dense global vector into one lane (tests/setup and the
  /// AMG coarse solve; not charged).
  void scatter(const RealVector& global, std::size_t lane = 0);
  void scatter(RankId r, const RealVector& global, std::size_t lane = 0);

 private:
  std::size_t local_n(RankId r) const {
    return static_cast<std::size_t>(rows_.local_size(r));
  }

  par::Runtime* rt_ = nullptr;
  par::RowPartition rows_;
  std::size_t ncomp_ = 0;
  std::vector<RealVector> local_;
  Precision prec_ = Precision::kF64;
};

}  // namespace exw::linalg
