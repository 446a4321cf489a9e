#pragma once
/// \file parcsr.hpp
/// Distributed sparse matrix in hypre's ParCSR layout.
///
/// Each simulated rank owns a contiguous block of global rows and stores
/// them as two CSR blocks (paper §3.3, Algorithm 1, line 7): `diag` holds
/// the columns owned by the same rank (local square-ish block) and `offd`
/// holds columns owned by other ranks, compressed through `col_map`
/// (offd local column -> global column, ascending). This split is "an
/// efficient decomposition for performing SpMVs in parallel": the diag
/// product needs no communication and the offd product consumes exactly
/// the halo values fetched by the communication package.

#include <cstdint>
#include <span>
#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "linalg/parvector.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"
#include "sparse/csr.hpp"

namespace exw::linalg {

/// One rank's share of the matrix.
struct RankBlock {
  sparse::Csr diag;
  sparse::Csr offd;
  std::vector<GlobalIndex> col_map;  ///< offd local col -> global col
};

/// Precomputed in-place value-refill map for one rank's diag/offd blocks
/// (the warm half of the assembly-plan cache, built by
/// assembly::AssemblyPlan). Assembled entry e gathers the stacked value
/// stream through stacked[perm[seg_ptr[e] .. seg_ptr[e+1])] in ascending
/// permutation order — the same addend order as stable_sort_by_key +
/// reduce_by_key, so a refill is bitwise-identical to cold assembly —
/// and lands at diag vals[dest[e]] when dest[e] >= 0, else at
/// offd vals[-dest[e] - 1].
struct ValueFillPlan {
  std::vector<std::size_t> perm;     ///< sorted position -> stacked slot
  std::vector<std::size_t> seg_ptr;  ///< entry -> range in perm
  std::vector<std::int64_t> dest;    ///< entry -> diag k / offd -(k+1)
};

/// hypre-style communication package: who sends which owned values where.
/// Each (src, dst) pair is one channel: a send here and a recv on the
/// other side, frozen for the matrix's lifetime.
struct CommPkg {
  struct Send {
    RankId dst{0};
    std::vector<LocalIndex> idx;  ///< local col indices to pack
    LocalIndex offset{0};  ///< where the run starts in dst's col_map
    std::size_t slot = 0;  ///< index of the matching recv in recvs[dst]
  };
  struct Recv {
    RankId src{0};
    LocalIndex count{0};  ///< contiguous run in col_map order
  };
  std::vector<std::vector<Send>> sends;  ///< [rank]
  std::vector<std::vector<Recv>> recvs;  ///< [rank], ascending src
};

class ParCsr {
 public:
  ParCsr() = default;

  /// Wrap per-rank blocks (col_map sorted ascending, offd cols indexing
  /// into it). Builds the communication package.
  ParCsr(par::Runtime& rt, par::RowPartition rows, par::RowPartition cols,
         std::vector<RankBlock> blocks);

  /// Split a serial CSR into ParCSR form (tests / reference paths).
  static ParCsr from_serial(par::Runtime& rt, const sparse::Csr& global,
                            const par::RowPartition& rows,
                            const par::RowPartition& cols);

  const par::RowPartition& rows() const { return rows_; }
  const par::RowPartition& cols() const { return cols_; }
  int nranks() const { return rows_.nranks(); }
  GlobalIndex global_rows() const { return rows_.global_size(); }
  GlobalIndex global_cols() const { return cols_.global_size(); }

  const RankBlock& block(RankId r) const {
    return blocks_[static_cast<std::size_t>(r)];
  }
  /// Mutable access to rank r's block. Inside a parallel rank region
  /// only rank r's own body may take it (contract-checked).
  RankBlock& block_mut(RankId r) {
    EXW_CONTRACT_CHECK_WRITE(r, "ParCsr::block_mut(r)");
    return blocks_[static_cast<std::size_t>(r)];
  }
  const CommPkg& comm() const { return comm_; }

  /// Warm-path value refill of rank r's blocks from the stacked value
  /// stream (owned values followed by received values in Algorithm 1's
  /// stacking order). Structure — row_ptr, cols, col_map, CommPkg — is
  /// untouched and no memory is allocated; this is the reproduction of
  /// hypre's SetValues2/AddToValues2 fast path, where repeated
  /// assemblies skip structure discovery entirely. Inside a parallel
  /// rank region only rank r's own body may call it (contract-checked).
  void set_values_from_plan(RankId r, const ValueFillPlan& plan,
                            std::span<const Real> stacked);

  /// Storage precision of the value arrays (indices are never demoted).
  /// An FP32-tagged matrix holds only FP32-representable values, its
  /// kernels price the value stream at 4 bytes/entry, and V-cycle
  /// transfer payloads serialize as float (DESIGN.md §16).
  Precision value_precision() const { return prec_; }

  /// Demote every diag/offd value in place and tag the matrix kF32.
  /// Cold setup operation (AMG hierarchy construction); charges one
  /// value-stream pass per rank. Throws on FP32 range overflow.
  void demote_values();

  /// Warm value-only copy from an FP64 twin with identical structure:
  /// demote src's values straight into this matrix's FP32 storage, no
  /// allocation, structure untouched. The mixed-precision analogue of
  /// set_values_from_plan for preconditioner rebinds.
  void copy_demoted_values_from(const ParCsr& src);

  GlobalIndex nnz_of_rank(RankId r) const;
  GlobalIndex global_nnz() const;
  /// Per-rank nonzero counts — the quantity of Figs. 5 and 10.
  std::vector<double> nnz_per_rank() const;

  // --- sparse kernels ------------------------------------------------------
  // A product that needs off-rank values is an orchestrator step that
  // opens the exchange (halo_begin / transpose_begin: channel sizing and
  // the stamp), the owners' packs (halo_pack(r, x) / transpose_send(r,
  // ...)), and then one body per rank that books its receipt and consumes
  // the values. The whole-matrix forms below run the packs in a region
  // of their own. A caller with more work per rank runs the regions
  // itself and calls the per-rank forms from its own bodies; the body
  // that finishes a vector's rows may pack them, as long as no body of
  // its region reads this matrix's halo (halo_pack) or its contribution
  // buffers (transpose_send).

  /// Open a halo exchange of `x` on the orchestrator: size the halo
  /// buffers for its lane count (per rank one SoA buffer of ncomp *
  /// col_map.size() values, lane c in the plane [c*m, (c+1)*m) in
  /// col_map order; they persist, and after the first call at a lane
  /// count nothing is allocated) and take the exchange's stamp. Every
  /// owner then runs halo_pack(r, x), and every receiver halo_receive
  /// (directly or through the per-rank matvec / residual) before the
  /// phase open now closes.
  void halo_begin(const ParVector& x) const;
  /// Owner r's share of the exchange: pack every lane of the values its
  /// neighbors request straight into their buffers at its runs' offsets
  /// (an FP32-tagged vector's values round through float, as on the
  /// wire), charging its pack kernels and one message per neighbor pair
  /// in one batched charge. Called by r's body.
  void halo_pack(RankId r, const ParVector& x) const;
  /// halo_begin, then every owner's halo_pack in one region.
  void halo_pack(const ParVector& x) const;
  /// Rank r's halo of the last halo_pack of `x`, with its receipt booked
  /// (per-message checks, one batched receive charge). Called by r's
  /// body.
  const RealVector& halo_receive(RankId r, const ParVector& x) const;

  /// y = alpha * A * x + beta * y lane by lane (x over cols(), y over
  /// rows(), equal lane counts). One pass reads row_ptr/cols once for
  /// all lanes — the u/v/w momentum systems share one sparsity pattern —
  /// and each lane's result is bitwise-identical to a 1-lane matvec of
  /// that lane. The index bytes are charged separately through
  /// perf::Tracer::kernel_split_prec so the saving is auditable.
  void matvec(const ParVector& x, ParVector& y, Real alpha = 1.0,
              Real beta = 0.0) const;
  /// Rank r's rows of matvec after halo_pack(x): receipt, then product.
  void matvec(RankId r, const ParVector& x, ParVector& y, Real alpha = 1.0,
              Real beta = 0.0) const;
  /// Former name of matvec, still called by perfbench/runner.
  void matvec_multi(const ParVector& x, ParVector& y, Real alpha = 1.0,
                    Real beta = 0.0) const {
    matvec(x, y, alpha, beta);
  }

  /// res = b - A * x, lane by lane.
  void residual(const ParVector& b, const ParVector& x, ParVector& res) const;
  /// Rank r's rows of residual after halo_pack(x): copy b, then the
  /// product.
  void residual(RankId r, const ParVector& b, const ParVector& x,
                ParVector& res) const;

  /// y = alpha * A^T * x + beta * y (x over rows(), y over cols(), one
  /// lane each). Off-diagonal contributions are sent to the owning
  /// ranks — the reverse of the halo pattern; used for AMG restriction
  /// with R = P^T. transpose_send then transpose_receive on every rank.
  void matvec_transpose(const ParVector& x, ParVector& y, Real alpha = 1.0,
                        Real beta = 0.0) const;
  /// Open a transpose product on the orchestrator: size the
  /// contribution buffers on first use and take the exchange's stamp.
  void transpose_begin() const;
  /// Rank r's share of matvec_transpose's first region: its local
  /// products, diag^T into its part of y and offd^T into its persistent
  /// contribution buffer in col_map order, one message per run back to
  /// its owner (one batched charge). Called by r's body.
  void transpose_send(RankId r, const ParVector& x, ParVector& y,
                      Real alpha = 1.0, Real beta = 0.0) const;
  /// transpose_begin, then every rank's transpose_send in one region.
  void transpose_send(const ParVector& x, ParVector& y, Real alpha = 1.0,
                      Real beta = 0.0) const;
  /// Owner r's part of the second region: receipt, then the received
  /// contributions added into y in comm().sends order. Called by r's
  /// body.
  void transpose_receive(RankId r, ParVector& y) const;

  /// Reassemble the full matrix on one "rank" (tests only).
  sparse::Csr to_serial() const;

  par::Runtime& runtime() const { return *rt_; }

 private:
  void build_comm_pkg();
  /// Size the persistent channel buffers on first use, and the halo
  /// buffers for `lanes` lanes (0: leave them as they are, for the
  /// transpose product). A no-op once sized.
  void prime_channels(std::size_t lanes) const;

  par::Runtime* rt_ = nullptr;
  par::RowPartition rows_;
  par::RowPartition cols_;
  std::vector<RankBlock> blocks_;
  CommPkg comm_;
  Precision prec_ = Precision::kF64;
  // Persistent channel state, indexed by the receiving side of the halo
  // pattern. halo_[r]: rank r's halo values, written by their owners.
  // contrib_[r]: rank r's transpose contributions, read by their owners.
  // stamp_: the tracer stamp of the exchange in flight (either
  // direction), taken on the orchestrator before its sending region.
  mutable std::vector<RealVector> halo_;
  mutable std::vector<RealVector> contrib_;
  mutable perf::MessageStamp stamp_;
  mutable std::size_t halo_lanes_ = 0;  ///< lanes halo_ is sized for
};

/// Rows of a distributed matrix fetched from other ranks, with *global*
/// column indices (used by the distributed Galerkin product).
struct ExtRows {
  std::vector<GlobalIndex> row_ids;   ///< global row ids, ascending
  std::vector<std::size_t> row_ptr;   ///< size row_ids.size() + 1
  std::vector<GlobalIndex> cols;
  std::vector<Real> vals;

  /// Index of global row `g` in row_ids, or npos.
  std::size_t find(GlobalIndex g) const;
};

/// For each rank, fetch the rows of `m` listed in `needed[r]` (global row
/// ids owned by other ranks). One request + one reply message per
/// neighbor pair is charged.
std::vector<ExtRows> fetch_external_rows(
    const ParCsr& m, const std::vector<std::vector<GlobalIndex>>& needed);

}  // namespace exw::linalg
