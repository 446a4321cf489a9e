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
  std::vector<RankId> edge_rank;    ///< processing rank per mesh edge
  int nranks = 0;

  GlobalIndex row_of(GlobalIndex node) const {
    return numbering.old_to_new[static_cast<std::size_t>(node)];
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
/// row order); uncharged, like the per-element ParVector accessors it
/// wraps.
void field_to_lane(const MeshLayout& layout, const RealVector& field,
                   linalg::ParVector& x, std::size_t lane);
/// Scatter one lane back: field[node] = x[lane, row_of(node)].
void lane_to_field(const MeshLayout& layout, const linalg::ParVector& x,
                   std::size_t lane, RealVector& field);

}  // namespace exw::assembly
