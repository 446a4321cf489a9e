#pragma once
/// \file graph.hpp
/// Stage 1 (graph computation) and Stage 2 (local assembly) of the
/// paper's three-stage linear-system construction (§3.1-3.2).
///
/// The graph computation traverses the mesh once and computes the *exact*
/// sparsity pattern per rank, split into owned rows and shared rows
/// (rows owned by other ranks), both sorted row-major COO with no
/// duplicates. It also precomputes the auxiliary write-location slots —
/// the paper's "auxiliary data structures [that] help determine the write
/// location quickly" (looked up through read-only texture memory on the
/// GPU) — so the per-Picard-iteration local assembly is a pure
/// data-parallel fill.
///
/// Boundary-condition rows (Dirichlet, overset fringe/hole) keep only
/// their diagonal ("accounted for precisely", §3.1).

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "assembly/layout.hpp"
#include "common/types.hpp"
#include "mesh/meshdb.hpp"
#include "sparse/coo.hpp"

namespace exw::assembly {

/// Encoded write location: owned slot k -> k, shared slot k -> -(k+1),
/// "no entry" (Dirichlet row) -> kNoSlot.
using Slot = std::int64_t;
inline constexpr Slot kNoSlot = std::numeric_limits<std::int64_t>::min();

inline Slot encode_shared(std::size_t k) { return -static_cast<Slot>(k) - 1; }

/// Per-rank matrix/RHS storage for one equation system.
struct RankSystem {
  sparse::Coo owned;        ///< rows owned by this rank (sorted, unique)
  sparse::Coo shared;       ///< rows owned by other ranks (sorted, unique)
  RealVector rhs_owned;     ///< dense over local rows
  sparse::CooVector rhs_shared;  ///< sparse contributions to off-rank rows

  void zero_values();
  void zero_rhs();
};

/// Precomputed slots for one mesh edge's 2x2 stencil + RHS pair.
struct EdgeSlots {
  RankId rank{0};
  Slot aa = kNoSlot, ab = kNoSlot, ba = kNoSlot, bb = kNoSlot;
  Slot rhs_a = kNoSlot, rhs_b = kNoSlot;
};

/// Precomputed slots for one node's diagonal + RHS.
struct NodeSlots {
  RankId rank{0};
  Slot diag = kNoSlot;
  Slot rhs = kNoSlot;
};

/// The per-equation assembly graph over all ranks.
class EquationGraph {
 public:
  /// `dirichlet[node]` marks rows reduced to identity (BC / fringe / hole).
  EquationGraph(const mesh::MeshDB& db, const MeshLayout& layout,
                const std::vector<std::uint8_t>& dirichlet);

  int nranks() const { return checked_narrow<int>(ranks_.size()); }
  RankSystem& rank(RankId r) { return ranks_[static_cast<std::size_t>(r)]; }
  const RankSystem& rank(RankId r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }

  const MeshLayout& layout() const { return *layout_; }
  const mesh::MeshDB& mesh() const { return *db_; }
  bool row_is_dirichlet(GlobalIndex node) const {
    return dirichlet_[static_cast<std::size_t>(node)] != 0;
  }

  // --- Stage 2: data-parallel value fill ---------------------------------

  /// Reset all matrix/RHS values to zero (start of a Picard iteration).
  void zero_values();

  /// Accumulate one edge's 2x2 stencil `m = [aa ab; ba bb]` and RHS pair
  /// into the edge's processing rank's RankSystem; each node's adds go to
  /// its owner's. Inside a parallel rank region only that rank's body may
  /// add (contract-checked), so a body that adds its own edges in global
  /// order, then its own nodes, gives every slot the serial loop's
  /// addend order. With `atomic`, values are added through
  /// std::atomic_ref — the device-atomics code path of §3.2
  /// (non-reproducible order, same sum).
  void add_edge(std::size_t edge_id, const std::array<Real, 4>& m,
                const std::array<Real, 2>& rhs, bool atomic = false);

  /// Accumulate one node's diagonal + RHS contribution. For Dirichlet
  /// rows this *is* the row: diag = 1, rhs = boundary value.
  void add_node(GlobalIndex node, Real diag, Real rhs, bool atomic = false);

  /// RHS-only fill (used to reuse one momentum matrix for the three
  /// velocity components: matrix assembled once, three RHS passes).
  void zero_rhs();
  void add_edge_rhs(std::size_t edge_id, const std::array<Real, 2>& rhs,
                    bool atomic = false);
  void add_node_rhs(GlobalIndex node, Real rhs, bool atomic = false);

  /// Graph-stage pattern statistics (for cost accounting).
  std::vector<double> pattern_nnz_per_rank() const;

  /// Process-unique id stamped at construction. Consumers that freeze
  /// pattern-derived state (the assembly-plan cache) key it on this:
  /// a rebuilt graph gets a new generation even if sizes coincide, so
  /// stale plans are detected without comparing patterns.
  std::uint64_t generation() const { return generation_; }

 private:
  void build_patterns();
  void build_slots();
  Slot locate_matrix(RankId r, GlobalIndex row, GlobalIndex col) const;
  Slot locate_rhs(RankId r, GlobalIndex row) const;
  void apply(RankId r, Slot slot, Real v, bool atomic);
  void apply_rhs(RankId r, Slot slot, Real v, bool atomic);

  const mesh::MeshDB* db_;
  const MeshLayout* layout_;
  std::uint64_t generation_ = 0;
  std::vector<std::uint8_t> dirichlet_;
  std::vector<RankSystem> ranks_;
  std::vector<EdgeSlots> edge_slots_;
  std::vector<NodeSlots> node_slots_;
  /// Owned-pattern row offsets per rank (local row -> COO index range).
  std::vector<std::vector<std::size_t>> owned_row_start_;
  /// Shared-pattern row index per rank (sorted distinct shared rows).
  std::vector<std::vector<GlobalIndex>> shared_rows_;
  std::vector<std::vector<std::size_t>> shared_row_start_;
};

}  // namespace exw::assembly
