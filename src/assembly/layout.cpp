#include "assembly/layout.hpp"

#include "common/error.hpp"
#include "linalg/parvector.hpp"
#include "part/graph_partition.hpp"
#include "part/rcb.hpp"

namespace exw::assembly {

void field_to_lane(const MeshLayout& layout, const RealVector& field,
                   linalg::ParVector& x, std::size_t lane) {
  EXW_REQUIRE(field.size() == layout.numbering.old_to_new.size(),
              "field size does not match layout node count");
  EXW_REQUIRE(x.rows().starts() == layout.numbering.rows.starts(),
              "vector rows are not the layout's row partition");
  x.runtime().parallel_for_ranks([&](RankId r) {
    const auto nodes = layout.nodes_of(r);
    const auto out = x.lane_span(r, lane);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      out[k] = field[static_cast<std::size_t>(nodes[k])];
    }
  });
}

void lane_to_field(const MeshLayout& layout, const linalg::ParVector& x,
                   std::size_t lane, RealVector& field) {
  EXW_REQUIRE(field.size() == layout.numbering.old_to_new.size(),
              "field size does not match layout node count");
  EXW_REQUIRE(x.rows().starts() == layout.numbering.rows.starts(),
              "vector rows are not the layout's row partition");
  x.runtime().parallel_for_ranks([&](RankId r) {
    const auto nodes = layout.nodes_of(r);
    const auto in = x.lane_span(r, lane);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      field[static_cast<std::size_t>(nodes[k])] = in[k];
    }
  });
}

MeshLayout make_layout_from_parts(const mesh::MeshDB& db,
                                  std::vector<RankId> parts, int nranks) {
  MeshLayout layout;
  layout.nranks = nranks;
  layout.node_rank = std::move(parts);
  layout.numbering = part::make_numbering(layout.node_rank, nranks);
  // An edge is evaluated by the owner of its lower-numbered endpoint (in
  // the new numbering), mirroring element-ownership in Nalu-Wind: most
  // contributions are local, cut edges produce shared rows.
  std::vector<RankId> edge_rank(db.edges.size());
  for (std::size_t e = 0; e < edge_rank.size(); ++e) {
    const auto& edge = db.edges[e];
    const GlobalIndex ra = layout.row_of(edge.a);
    const GlobalIndex rb = layout.row_of(edge.b);
    edge_rank[e] = layout.numbering.rows.rank_of(std::min(ra, rb));
  }
  // Bucket the edges by rank (a counting sort keeps ascending ids).
  layout.rank_edge_start.assign(static_cast<std::size_t>(nranks) + 1, 0);
  for (RankId r : edge_rank) {
    layout.rank_edge_start[static_cast<std::size_t>(r) + 1] += 1;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(nranks); ++r) {
    layout.rank_edge_start[r + 1] += layout.rank_edge_start[r];
  }
  layout.rank_edges.resize(edge_rank.size());
  std::vector<std::uint32_t> cursor(layout.rank_edge_start.begin(),
                                    layout.rank_edge_start.end() - 1);
  for (std::size_t e = 0; e < edge_rank.size(); ++e) {
    layout.rank_edges[cursor[static_cast<std::size_t>(edge_rank[e])]++] =
        checked_narrow<std::uint32_t>(e);
  }
  return layout;
}

MeshLayout make_layout(const mesh::MeshDB& db, int nranks,
                       PartitionMethod method) {
  EXW_REQUIRE(db.num_nodes().value() >= nranks, "more ranks than mesh nodes");
  // Node weight = expected matrix row size: diagonal + neighbors for
  // live rows, 1 for rows the discretization reduces to identity
  // (boundary / fringe / hole). The graph partitioner balances this —
  // the paper's Fig. 5 objective — while RCB, like the original
  // Nalu-Wind decomposition, balances plain node counts and is blind to
  // the row-size variation (the source of its 10x nnz spread).
  std::vector<double> vwgt(static_cast<std::size_t>(db.num_nodes()), 1.0);
  for (const auto& e : db.edges) {
    vwgt[static_cast<std::size_t>(e.a)] += 1.0;
    vwgt[static_cast<std::size_t>(e.b)] += 1.0;
  }
  // Identity rows of the dominant (pressure) system: outflow, overset
  // fringe, and hole nodes. Inflow/symmetry/wall rows are Dirichlet only
  // for momentum — the pressure system keeps their full stencils, so
  // they must carry full weight.
  for (std::size_t i = 0; i < vwgt.size(); ++i) {
    const auto role = db.roles[i];
    if (role == mesh::NodeRole::kOutflow || role == mesh::NodeRole::kFringe ||
        role == mesh::NodeRole::kHole) {
      vwgt[i] = 1.0;
    }
  }
  std::vector<RankId> parts;
  if (method == PartitionMethod::kRcb) {
    parts = part::rcb_partition(db.coords, {}, nranks);
  } else {
    std::vector<LocalIndex> ei(db.edges.size()), ej(db.edges.size());
    for (std::size_t e = 0; e < db.edges.size(); ++e) {
      ei[e] = checked_narrow<LocalIndex>(db.edges[e].a);
      ej[e] = checked_narrow<LocalIndex>(db.edges[e].b);
    }
    part::Graph g = part::graph_from_edges(
        checked_narrow<LocalIndex>(db.num_nodes()), ei, ej, vwgt);
    part::GraphPartOptions opts;
    opts.seed = 1234;
    parts = part::graph_partition(g, nranks, opts);
  }
  return make_layout_from_parts(db, std::move(parts), nranks);
}

}  // namespace exw::assembly
