#include "mesh/meshdb.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace exw::mesh {

namespace {

Real tet_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  const Vec3 ab = b - a, ac = c - a, ad = d - a;
  return std::abs(ab.cross(ac).dot(ad)) / 6.0;
}

/// The 12 edges of a hex8 (local node pairs) and, for each, the two hex
/// faces sharing it (bottom 0123, top 4567, then the four sides).
struct HexEdge {
  int a, b;
  int f1, f2;
};

constexpr std::array<std::array<int, 4>, 6> kHexFaces = {{{0, 1, 2, 3},
                                                          {4, 5, 6, 7},
                                                          {0, 1, 5, 4},
                                                          {1, 2, 6, 5},
                                                          {2, 3, 7, 6},
                                                          {3, 0, 4, 7}}};

constexpr std::array<HexEdge, 12> kHexEdges = {{{0, 1, 0, 2},
                                                {1, 2, 0, 3},
                                                {2, 3, 0, 4},
                                                {3, 0, 0, 5},
                                                {4, 5, 1, 2},
                                                {5, 6, 1, 3},
                                                {6, 7, 1, 4},
                                                {7, 4, 1, 5},
                                                {0, 4, 2, 5},
                                                {1, 5, 2, 3},
                                                {2, 6, 3, 4},
                                                {3, 7, 4, 5}}};

Vec3 face_center(const std::array<Vec3, 8>& x, int f) {
  Vec3 c{};
  for (int n : kHexFaces[static_cast<std::size_t>(f)]) {
    c += x[static_cast<std::size_t>(n)] * 0.25;
  }
  return c;
}

}  // namespace

Real hex_volume(const std::array<Vec3, 8>& x) {
  // Split along the 0-6 diagonal into 6 tetrahedra.
  return tet_volume(x[0], x[1], x[2], x[6]) +
         tet_volume(x[0], x[2], x[3], x[6]) +
         tet_volume(x[0], x[3], x[7], x[6]) +
         tet_volume(x[0], x[7], x[4], x[6]) +
         tet_volume(x[0], x[4], x[5], x[6]) +
         tet_volume(x[0], x[5], x[1], x[6]);
}

void MeshDB::compute_dual_quantities() {
  EXW_REQUIRE(coords.size() == ref_coords.size() || coords.empty(),
              "coords/ref_coords mismatch");
  if (coords.empty()) {
    coords = ref_coords;
  }
  if (roles.empty()) {
    roles.assign(coords.size(), NodeRole::kInterior);
  }
  node_volume.assign(coords.size(), 0.0);

  // Median-dual face area per edge: within each hex, the dual face of
  // edge (a, b) is the quad (edge midpoint, face center 1, hex centroid,
  // face center 2); its area vector is half the cross product of the
  // diagonals, oriented a -> b. Dual faces of the edges around an
  // interior node tile a closed surface, so constant fields are exactly
  // divergence-free — the property the projection scheme relies on.
  std::map<std::pair<GlobalIndex, GlobalIndex>, Vec3> areas;
  for (const auto& h : hexes) {
    std::array<Vec3, 8> x;
    for (int c = 0; c < 8; ++c) {
      x[static_cast<std::size_t>(c)] =
          coords[static_cast<std::size_t>(h[static_cast<std::size_t>(c)])];
    }
    const Real vol = hex_volume(x);
    for (int c = 0; c < 8; ++c) {
      node_volume[static_cast<std::size_t>(h[static_cast<std::size_t>(c)])] +=
          vol / 8.0;
    }
    Vec3 centroid{};
    for (const Vec3& p : x) {
      centroid += p * 0.125;
    }
    for (const HexEdge& e : kHexEdges) {
      const GlobalIndex ga = h[static_cast<std::size_t>(e.a)];
      const GlobalIndex gb = h[static_cast<std::size_t>(e.b)];
      const Vec3& xa = x[static_cast<std::size_t>(e.a)];
      const Vec3& xb = x[static_cast<std::size_t>(e.b)];
      const Vec3 mid = (xa + xb) * 0.5;
      const Vec3 fc1 = face_center(x, e.f1);
      const Vec3 fc2 = face_center(x, e.f2);
      // Quad (mid, fc1, centroid, fc2): area = 0.5 * d1 x d2 with
      // diagonals d1 = centroid - mid, d2 = fc2 - fc1.
      Vec3 area = (centroid - mid).cross(fc2 - fc1) * 0.5;
      const Vec3 dx = xb - xa;
      Vec3 oriented_dx = dx;
      if (ga > gb) {
        oriented_dx = oriented_dx * -1.0;  // store edges with a < b
      }
      if (area.dot(oriented_dx) < 0) {
        area = area * -1.0;
      }
      const auto key = ga < gb ? std::make_pair(ga, gb) : std::make_pair(gb, ga);
      areas[key] += area;
    }
  }

  edges.clear();
  edges.reserve(areas.size());
  node_boundary_area.assign(coords.size(), Vec3{});
  for (const auto& [key, area] : areas) {
    Edge e;
    e.a = key.first;
    e.b = key.second;
    e.area = area;
    const Vec3 dx = coords[static_cast<std::size_t>(e.b)] -
                    coords[static_cast<std::size_t>(e.a)];
    const Real adx = area.dot(dx);
    const Real a2 = area.dot(area);
    // Two-point flux coefficient; guard degenerate slivers.
    e.coeff = adx > 1e-300 ? a2 / adx : 0.0;
    edges.push_back(e);
    // Closure: outward for a, inward for b.
    node_boundary_area[static_cast<std::size_t>(e.a)] += area * -1.0;
    node_boundary_area[static_cast<std::size_t>(e.b)] += area;
  }
}

void MeshDB::bounding_box(Vec3& lo, Vec3& hi) const {
  lo = {1e300, 1e300, 1e300};
  hi = {-1e300, -1e300, -1e300};
  for (const Vec3& c : coords) {
    lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
    hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
  }
}

NodeEdgeIncidence make_node_edge_incidence(const MeshDB& db) {
  // A counting sort over the edge list keeps every node's edges in
  // ascending id.
  const auto n = static_cast<std::size_t>(db.num_nodes());
  NodeEdgeIncidence inc;
  inc.start.assign(n + 1, 0);
  for (const Edge& edge : db.edges) {
    inc.start[static_cast<std::size_t>(edge.a) + 1] += 1;
    inc.start[static_cast<std::size_t>(edge.b) + 1] += 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    inc.start[i + 1] += inc.start[i];
  }
  inc.edges.resize(2 * db.edges.size());
  std::vector<std::uint32_t> cursor(inc.start.begin(), inc.start.end() - 1);
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const auto id = checked_narrow<std::uint32_t>(e);
    inc.edges[cursor[static_cast<std::size_t>(db.edges[e].a)]++] = id;
    inc.edges[cursor[static_cast<std::size_t>(db.edges[e].b)]++] = id;
  }
  return inc;
}

Real MeshDB::total_volume() const {
  Real v = 0;
  for (const auto& h : hexes) {
    std::array<Vec3, 8> x;
    for (int c = 0; c < 8; ++c) {
      x[static_cast<std::size_t>(c)] =
          coords[static_cast<std::size_t>(h[static_cast<std::size_t>(c)])];
    }
    v += hex_volume(x);
  }
  return v;
}

bool MeshDB::edges_valid() const {
  for (const Edge& e : edges) {
    if (e.a < GlobalIndex{0} || e.a >= num_nodes() ||
        e.b < GlobalIndex{0} || e.b >= num_nodes())
      return false;
    if (e.a >= e.b) return false;
    if (!(e.coeff >= 0)) return false;
  }
  return true;
}

}  // namespace exw::mesh
