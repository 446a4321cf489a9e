#pragma once
/// \file meshdb.hpp
/// Unstructured hexahedral mesh database (the STK-mesh stand-in).
///
/// Nalu-Wind stores its computational mesh and fields in the Sierra
/// Toolkit (paper §2). This compact equivalent keeps what the solver
/// needs: node coordinates (reference + current, for rotor motion), hex
/// connectivity, the derived unique edge set with dual-face coefficients
/// for the edge-based finite-volume discretization, nodal control-volume
/// measures, and per-node roles (interior / boundary kinds / overset
/// fringe / overset hole).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace exw::mesh {

/// What a node is to the discretization. Boundary and overset roles turn
/// the node's row into a Dirichlet-type row (paper §3.1: "boundary-
/// condition nodes, including periodic, Dirichlet, and overset DoFs are
/// accounted for precisely").
enum class NodeRole : std::uint8_t {
  kInterior,
  kInflow,    ///< Dirichlet velocity, Neumann pressure
  kOutflow,   ///< Neumann velocity, Dirichlet pressure
  kSymmetry,  ///< slip wall
  kWall,      ///< no-slip (blade surface)
  kFringe,    ///< overset receptor: value interpolated from donor mesh
  kHole,      ///< blanked by hole cutting: decoupled identity row
};

/// One edge of the dual FV graph: node pair, median-dual face area
/// vector (oriented a -> b), and the derived diffusive coupling.
struct Edge {
  GlobalIndex a{0};
  GlobalIndex b{0};
  /// Median-dual face area vector (sum over adjacent hexes of the quad
  /// spanned by edge midpoint, the two face centers, and the centroid).
  /// Oriented so that area.dot(x_b - x_a) >= 0. The dual faces of all
  /// edges around an interior node close exactly, which makes constant
  /// fields divergence-free on arbitrarily graded meshes.
  Vec3 area{};
  /// Diffusive coupling g_ab = |area|^2 / (area . dx) >= 0.
  Real coeff = 0;
};

class MeshDB {
 public:
  /// Node data.
  std::vector<Vec3> ref_coords;  ///< reference configuration
  std::vector<Vec3> coords;      ///< current (possibly rotated)
  std::vector<NodeRole> roles;

  /// Element connectivity (hex8, node ids into coords).
  std::vector<std::array<GlobalIndex, 8>> hexes;

  /// Derived: unique mesh edges with FV coefficients and nodal volumes.
  std::vector<Edge> edges;
  std::vector<Real> node_volume;
  /// Boundary-closure area vector per node: minus the sum of incident
  /// dual-face areas. Zero for interior nodes; for boundary nodes it is
  /// the outward boundary-face area of the node's dual cell, needed to
  /// close divergence and Green-Gauss gradients.
  std::vector<Vec3> node_boundary_area;

  std::string name;

  /// Reference-frame dual geometry cached by rotate_mesh (motion.cpp).
  std::vector<Edge> ref_edges_;
  std::vector<Vec3> ref_boundary_area_;

  GlobalIndex num_nodes() const { return GlobalIndex{coords.size()}; }
  GlobalIndex num_hexes() const { return GlobalIndex{hexes.size()}; }
  GlobalIndex num_edges() const { return GlobalIndex{edges.size()}; }

  /// Rebuild edges / coefficients / volumes from hexes + current coords.
  /// Called once after generation and after large deformations (rigid
  /// rotation preserves the coefficients, so motion does not call this).
  void compute_dual_quantities();

  /// Axis-aligned bounding box of current coordinates.
  void bounding_box(Vec3& lo, Vec3& hi) const;

  /// Geometric checks used by tests.
  Real total_volume() const;
  bool edges_valid() const;
};

/// Node -> incident edges of a MeshDB, frozen from its edge list: node
/// i's edges are edges[start[i] .. start[i + 1]), in ascending edge id
/// (32-bit ids keep it compact). A pass over one node's edges meets them
/// in the order a loop over all edges does, so the gathers below give
/// every node the sum that loop's scatter gives it, bit for bit.
struct NodeEdgeIncidence {
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> edges;

  std::span<const std::uint32_t> at(std::size_t node) const {
    return {edges.data() + start[node], start[node + 1] - start[node]};
  }
};

NodeEdgeIncidence make_node_edge_incidence(const MeshDB& db);

/// Green-Gauss sum at `node` of the edge face values f = face(a, b):
/// area * f at each edge's a end and area * (-f) at its b end — the
/// scatter `g[a] += area * f; g[b] += area * (-f)` over all edges.
template <typename Face>
Vec3 gather_area_sum(const MeshDB& db, const NodeEdgeIncidence& inc,
                     std::size_t node, Face&& face) {
  Vec3 g{};
  for (const std::uint32_t e : inc.at(node)) {
    const Edge& edge = db.edges[e];
    const auto a = static_cast<std::size_t>(edge.a);
    const Real f = face(a, static_cast<std::size_t>(edge.b));
    g += a == node ? edge.area * f : edge.area * (-f);
  }
  return g;
}

/// Net edge value at `node`: +value(e) at each edge's a end, -value(e)
/// at its b end — the scatter `d[a] += value(e); d[b] -= value(e)`.
template <typename Value>
Real gather_net(const MeshDB& db, const NodeEdgeIncidence& inc,
                std::size_t node, Value&& value) {
  Real d = 0.0;
  for (const std::uint32_t e : inc.at(node)) {
    if (static_cast<std::size_t>(db.edges[e].a) == node) {
      d += value(e);
    } else {
      d -= value(e);
    }
  }
  return d;
}

/// Helper to build structured blocks of hexes as unstructured data:
/// nodes indexed (i, j, k) on an (ni+1) x (nj+1) x (nk+1) lattice whose
/// positions come from a callable mapping.
class StructuredBlockBuilder {
 public:
  StructuredBlockBuilder(GlobalIndex ni, GlobalIndex nj, GlobalIndex nk)
      : ni_(ni), nj_(nj), nk_(nk) {}

  GlobalIndex node_id(GlobalIndex i, GlobalIndex j, GlobalIndex k) const {
    // Lattice flattening multiplies extents, which StrongId deliberately
    // does not define; drop to raw 64-bit values for the arithmetic.
    return GlobalIndex{(k.value() * (nj_.value() + 1) + j.value()) *
                           (ni_.value() + 1) +
                       i.value()};
  }
  GlobalIndex num_nodes() const {
    return GlobalIndex{(ni_.value() + 1) * (nj_.value() + 1) *
                       (nk_.value() + 1)};
  }
  GlobalIndex ni() const { return ni_; }
  GlobalIndex nj() const { return nj_; }
  GlobalIndex nk() const { return nk_; }

  /// Append this block's nodes and hexes to `db` (with node offset);
  /// positions from `pos(i, j, k)`. Returns the node-id offset used.
  template <typename PosFn>
  GlobalIndex emit(MeshDB& db, PosFn&& pos) const {
    const GlobalIndex offset = db.num_nodes();
    db.ref_coords.reserve(static_cast<std::size_t>(offset + num_nodes()));
    for (GlobalIndex k{0}; k <= nk_; ++k) {
      for (GlobalIndex j{0}; j <= nj_; ++j) {
        for (GlobalIndex i{0}; i <= ni_; ++i) {
          db.ref_coords.push_back(pos(i, j, k));
        }
      }
    }
    for (GlobalIndex k{0}; k < nk_; ++k) {
      for (GlobalIndex j{0}; j < nj_; ++j) {
        for (GlobalIndex i{0}; i < ni_; ++i) {
          db.hexes.push_back({offset + node_id(i, j, k),
                              offset + node_id(i + 1, j, k),
                              offset + node_id(i + 1, j + 1, k),
                              offset + node_id(i, j + 1, k),
                              offset + node_id(i, j, k + 1),
                              offset + node_id(i + 1, j, k + 1),
                              offset + node_id(i + 1, j + 1, k + 1),
                              offset + node_id(i, j + 1, k + 1)});
        }
      }
    }
    return offset;
  }

 private:
  GlobalIndex ni_, nj_, nk_;
};

/// Volume of one hex from its corner coordinates (long-diagonal
/// decomposition into 6 tetrahedra; exact for any straight-edged hex).
Real hex_volume(const std::array<Vec3, 8>& x);

}  // namespace exw::mesh
