#pragma once
/// \file plan.hpp
/// Assembly-plan cache: stage-3 structure discovery done once, value-only
/// refills every Picard iteration after that.
///
/// The paper freezes the sparsity pattern across the nonlinear iterations
/// of a time step (§3.1: the graph stage runs once; §3.2-3.3 re-run per
/// iteration). hypre's IJ fast path (SetValues2 / AddToValues2 /
/// Assemble) exploits exactly that: the first assembly pays for sorting,
/// reduction and diag/offd splitting, later assemblies only move values.
/// AssemblyPlan is that fast path for the simulated runtime. `build()`
/// runs Algorithm 1/2's structural half once per (pattern, partition):
///
///   * per-rank send slices of the shared COO triples (one contiguous
///     run per owner, because the partition is contiguous block-row and
///     the shared set is sorted by row),
///   * the receive composition (source ranks in ascending order — the
///     cold path's drain order — with entry counts),
///   * the stable-sort permutation + reduce segments of the stacked
///     [owned, received] triples, frozen as a linalg::ValueFillPlan
///     whose segmented sums replay reduce_by_key's exact addend order,
///   * the diag/offd destination of every assembled entry, matching
///     split_diag_offd's fill order,
///   * the same three pieces for the RHS (Algorithm 2, received entries
///     only) as a linalg::VectorFillPlan,
///   * the final ParCSR structure (row_ptr / cols / col_map / CommPkg)
///     with zeroed values, cloned by create_matrix().
///
/// `refill_matrix()` / `refill_vector()` are then pure value pipelines —
/// each sender copies its frozen slices straight into the receivers'
/// stacked buffers, then each receiver segmented-sums through the frozen
/// maps into the existing ParCsr/ParVector — with no sort, no searches
/// and no steady-state allocation. The slices travel on persistent
/// per-(src, dst) channels, as ParCsr's halo exchange does: the offset of
/// every slice in its receiver's buffer is frozen by `build()`, and
/// Runtime::channel_sent / channel_received do the contract, tracer and
/// comm-audit bookkeeping, so a warm refill posts nothing to Transport.
/// Results are bitwise-identical to cold kSortReduce assembly because
/// the stable permutation fixes the addend order the cold path would
/// have used.

#include <cstdint>
#include <span>
#include <vector>

#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "common/types.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"

namespace exw::assembly {

/// Per-rank SystemViews aliasing an EquationGraph's stage-2 buffers
/// (valid as long as the graph lives; no copies).
std::vector<SystemView> system_views(const EquationGraph& graph);

class AssemblyPlan {
 public:
  /// One contiguous run of entries exchanged with `peer`. For sends,
  /// [begin, end) indexes the rank's shared COO/RHS arrays; for
  /// receives, it indexes the received region of the stacked value
  /// stream (so recv slices tile [0, n_recv)).
  struct Slice {
    RankId peer{0};
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Sends only: the index of the matching slice in the receiver's
    /// recv list, whose `begin` is where this run lands.
    std::size_t slot = 0;
  };

  /// Frozen stage-3 structure for one rank.
  struct RankPlan {
    // Matrix (Algorithm 1).
    std::vector<Slice> mat_sends;  ///< shared-triple runs, by owner
    std::vector<Slice> mat_recvs;  ///< ascending src — cold drain order
    std::size_t n_own = 0;         ///< owned-pattern nnz
    std::size_t n_recv = 0;        ///< total received triples
    linalg::ValueFillPlan mat_fill;
    // RHS (Algorithm 2).
    std::vector<Slice> rhs_sends;
    std::vector<Slice> rhs_recvs;
    std::size_t rhs_n_own = 0;  ///< local rows (dense owned RHS)
    std::size_t rhs_n_recv = 0;
    linalg::VectorFillPlan rhs_fill;
    // Channel buffers, sized by build() and reused by every refill.
    // Mutable because refills are const operations on the plan. A
    // sender's body writes only its own slices of a receiver's received
    // region; the receiver's body reads them after the region barrier.
    mutable RealVector stacked;   ///< [owned, received] matrix values
    mutable RealVector rhs_recv;  ///< received RHS values
  };

  AssemblyPlan() = default;

  /// Discover the full stage-3 structure from the pattern in `systems`
  /// (values are ignored). Charges the same sort the first cold assembly
  /// would, i.e. building the plan costs one cold structural pass.
  static AssemblyPlan build(par::Runtime& rt, const par::RowPartition& rows,
                            const par::RowPartition& cols,
                            std::span<const SystemView> systems);

  bool valid() const { return !ranks_.empty(); }
  const par::RowPartition& rows() const { return rows_; }
  const par::RowPartition& cols() const { return cols_; }

  /// Materialize the frozen structure as a ParCsr with zeroed values
  /// (comm package rebuilt from the cloned structure).
  linalg::ParCsr create_matrix(par::Runtime& rt) const;
  /// Zero ParVector over the row partition.
  linalg::ParVector create_vector(par::Runtime& rt) const;

  /// Warm value-only reassembly into a matrix created by create_matrix()
  /// (or cold-assembled from the same pattern): copy shared values into
  /// their receivers' stacked streams, one channel message per neighbor
  /// pair, then segmented-sum through the frozen fill plan. Bitwise equal
  /// to assemble_matrix(..., kSortReduce) on the same values.
  void refill_matrix(par::Runtime& rt, std::span<const SystemView> systems,
                     linalg::ParCsr& a) const;

  /// Warm RHS reassembly (Algorithm 2 analogue of refill_matrix).
  void refill_vector(par::Runtime& rt, std::span<const SystemView> systems,
                     linalg::ParVector& b) const;

 private:
  par::RowPartition rows_;
  par::RowPartition cols_;
  std::vector<RankPlan> ranks_;
  std::vector<linalg::RankBlock> structure_;  ///< values all zero
  /// Tracer stamp of the refill in flight, taken before its send region.
  mutable perf::MessageStamp stamp_;
};

}  // namespace exw::assembly
