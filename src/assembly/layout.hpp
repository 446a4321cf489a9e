#pragma once
/// \file layout.hpp
/// Distribution layout of one mesh's DoFs and elements across ranks.
///
/// Each overset component mesh is distributed over *all* ranks (paper §2:
/// the per-mesh linear systems are themselves large distributed systems).
/// A layout fixes (a) the node -> contiguous-global-row renumbering that
/// hypre's block-row format requires and (b) which rank evaluates and
/// assembles each mesh edge. Edges whose endpoints live on different
/// ranks produce the "shared" COO contributions that stage 3 exchanges.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "mesh/meshdb.hpp"
#include "par/partition.hpp"
#include "part/renumber.hpp"

namespace exw::linalg {
class ParVector;
}  // namespace exw::linalg

namespace exw::assembly {

/// Partitioner choice for building layouts (paper §5.1, Figs. 4-5).
enum class PartitionMethod { kRcb, kGraph };

struct MeshLayout {
  part::Numbering numbering;        ///< node id <-> global row id
  std::vector<RankId> node_rank;    ///< owner rank per node
  /// The mesh edges grouped by processing rank, each rank's in ascending
  /// id: rank r's are rank_edges[rank_edge_start[r] ..
  /// rank_edge_start[r + 1]).
  std::vector<std::uint32_t> rank_edges;
  std::vector<std::uint32_t> rank_edge_start;
  int nranks = 0;

  GlobalIndex row_of(GlobalIndex node) const {
    return numbering.old_to_new[static_cast<std::size_t>(node)];
  }
  /// Rank r's edges in ascending id: the order the serial edge loop
  /// visits them.
  std::span<const std::uint32_t> edges_of(RankId r) const {
    const auto b = rank_edge_start[static_cast<std::size_t>(r)];
    const auto e = rank_edge_start[static_cast<std::size_t>(r) + 1];
    return {rank_edges.data() + b, e - b};
  }
  /// Rank r's nodes in ascending id, in local-row order (the renumbering
  /// is stable, so both orders agree).
  std::span<const GlobalIndex> nodes_of(RankId r) const {
    const auto& rows = numbering.rows;
    return {numbering.new_to_old.data() +
                static_cast<std::size_t>(rows.first_row(r)),
            static_cast<std::size_t>(rows.local_size(r))};
  }
};

/// Partition `db` over `nranks` ranks with the given method and build the
/// layout. Node weights are the expected row nonzeros (1 + degree), so
/// the graph method balances the paper's Fig. 5 metric. The graph
/// partitioner runs with a fixed seed.
MeshLayout make_layout(const mesh::MeshDB& db, int nranks,
                       PartitionMethod method);

/// Layout from an externally computed part assignment.
MeshLayout make_layout_from_parts(const mesh::MeshDB& db,
                                  std::vector<RankId> parts, int nranks);

/// Gather a nodal field into one lane of the layout's distributed row
/// vector: x[lane, row_of(node)] = field[node]. Host-side glue between
/// the physics fields (mesh node order) and solver vectors (renumbered
/// row order), one rank body per rank over its own rows; uncharged.
void field_to_lane(const MeshLayout& layout, const RealVector& field,
                   linalg::ParVector& x, std::size_t lane);
/// Scatter one lane back: field[node] = x[lane, row_of(node)].
void lane_to_field(const MeshLayout& layout, const linalg::ParVector& x,
                   std::size_t lane, RealVector& field);

}  // namespace exw::assembly
