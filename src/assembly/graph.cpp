#include "assembly/graph.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "par/thread_pool.hpp"

namespace exw::assembly {

void RankSystem::zero_values() {
  std::fill(owned.vals.begin(), owned.vals.end(), 0.0);
  std::fill(shared.vals.begin(), shared.vals.end(), 0.0);
  zero_rhs();
}

void RankSystem::zero_rhs() {
  std::fill(rhs_owned.begin(), rhs_owned.end(), 0.0);
  std::fill(rhs_shared.vals.begin(), rhs_shared.vals.end(), 0.0);
}

namespace {
std::uint64_t next_graph_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

EquationGraph::EquationGraph(const mesh::MeshDB& db, const MeshLayout& layout,
                             const std::vector<std::uint8_t>& dirichlet)
    : db_(&db), layout_(&layout), generation_(next_graph_generation()),
      dirichlet_(dirichlet) {
  EXW_REQUIRE(dirichlet_.size() == static_cast<std::size_t>(db.num_nodes()),
              "dirichlet mask size mismatch");
  ranks_.resize(static_cast<std::size_t>(layout.nranks));
  build_patterns();
  build_slots();
}

void EquationGraph::build_patterns() {
  const auto& rows = layout_->numbering.rows;
  const int nranks = layout_->nranks;

  // Collect the raw (row, col) pattern per rank; values zero.
  std::vector<sparse::Coo> raw_owned(static_cast<std::size_t>(nranks));
  std::vector<sparse::Coo> raw_shared(static_cast<std::size_t>(nranks));
  std::vector<sparse::CooVector> raw_rhs_shared(static_cast<std::size_t>(nranks));

  auto add_pattern = [&](RankId r, GlobalIndex row, GlobalIndex col) {
    if (rows.owns(r, row)) {
      raw_owned[static_cast<std::size_t>(r)].push(row, col, 0.0);
    } else {
      raw_shared[static_cast<std::size_t>(r)].push(row, col, 0.0);
      raw_rhs_shared[static_cast<std::size_t>(r)].push(row, 0.0);
    }
  };

  // Every node contributes its diagonal on its owner (time term or the
  // identity of a Dirichlet row).
  for (GlobalIndex n{0}; n < db_->num_nodes(); ++n) {
    const GlobalIndex row = layout_->row_of(n);
    const RankId r = layout_->node_rank[static_cast<std::size_t>(n)];
    raw_owned[static_cast<std::size_t>(r)].push(row, row, 0.0);
  }
  // Edge stencils on each edge's processing rank; Dirichlet rows receive
  // nothing off-diagonal.
  for (RankId r{0}; r.value() < nranks; ++r) {
    for (const std::uint32_t e : layout_->edges_of(r)) {
      const auto& edge = db_->edges[e];
      const GlobalIndex ra = layout_->row_of(edge.a);
      const GlobalIndex rb = layout_->row_of(edge.b);
      if (!row_is_dirichlet(edge.a)) {
        add_pattern(r, ra, ra);
        add_pattern(r, ra, rb);
      }
      if (!row_is_dirichlet(edge.b)) {
        add_pattern(r, rb, rb);
        add_pattern(r, rb, ra);
      }
    }
  }

  owned_row_start_.resize(static_cast<std::size_t>(nranks));
  shared_rows_.resize(static_cast<std::size_t>(nranks));
  shared_row_start_.resize(static_cast<std::size_t>(nranks));
  // Per-rank normalize/sort + offset build: each body touches only its
  // own rank's containers (EquationGraph has no Runtime, so this goes
  // through the shared pool directly).
  par::parallel_for(nranks, [&](int r) {
    RankSystem& sys = ranks_[static_cast<std::size_t>(r)];
    sys.owned = std::move(raw_owned[static_cast<std::size_t>(r)]);
    sys.shared = std::move(raw_shared[static_cast<std::size_t>(r)]);
    sys.owned.normalize();
    sys.shared.normalize();
    sys.rhs_owned.assign(static_cast<std::size_t>(rows.local_size(RankId{r})),
                         0.0);
    sys.rhs_shared = std::move(raw_rhs_shared[static_cast<std::size_t>(r)]);
    sys.rhs_shared.normalize();

    // Owned row offsets: owned rows are contiguous [first_row, end_row).
    auto& ors = owned_row_start_[static_cast<std::size_t>(r)];
    ors.assign(static_cast<std::size_t>(rows.local_size(RankId{r})) + 1, 0);
    for (GlobalIndex row : sys.owned.rows) {
      ors[static_cast<std::size_t>(row - rows.first_row(RankId{r})) + 1] += 1;
    }
    for (std::size_t i = 1; i < ors.size(); ++i) {
      ors[i] += ors[i - 1];
    }
    // Shared row directory.
    auto& srows = shared_rows_[static_cast<std::size_t>(r)];
    auto& sstart = shared_row_start_[static_cast<std::size_t>(r)];
    srows.clear();
    sstart.clear();
    for (std::size_t k = 0; k < sys.shared.nnz(); ++k) {
      if (srows.empty() || srows.back() != sys.shared.rows[k]) {
        srows.push_back(sys.shared.rows[k]);
        sstart.push_back(k);
      }
    }
    sstart.push_back(sys.shared.nnz());
  });
}

void EquationGraph::build_slots() {
  const auto& rows = layout_->numbering.rows;
  node_slots_.resize(static_cast<std::size_t>(db_->num_nodes()));
  for (GlobalIndex n{0}; n < db_->num_nodes(); ++n) {
    const RankId r = layout_->node_rank[static_cast<std::size_t>(n)];
    const GlobalIndex row = layout_->row_of(n);
    NodeSlots& s = node_slots_[static_cast<std::size_t>(n)];
    s.rank = r;
    s.diag = locate_matrix(r, row, row);
    s.rhs = (row - rows.first_row(r)).value();
  }
  edge_slots_.resize(db_->edges.size());
  for (RankId r{0}; r.value() < layout_->nranks; ++r) {
    for (const std::uint32_t e : layout_->edges_of(r)) {
      const auto& edge = db_->edges[e];
      const GlobalIndex ra = layout_->row_of(edge.a);
      const GlobalIndex rb = layout_->row_of(edge.b);
      EdgeSlots& s = edge_slots_[e];
      s.rank = r;
      if (!row_is_dirichlet(edge.a)) {
        s.aa = locate_matrix(r, ra, ra);
        s.ab = locate_matrix(r, ra, rb);
        s.rhs_a = locate_rhs(r, ra);
      }
      if (!row_is_dirichlet(edge.b)) {
        s.bb = locate_matrix(r, rb, rb);
        s.ba = locate_matrix(r, rb, ra);
        s.rhs_b = locate_rhs(r, rb);
      }
    }
  }
}

Slot EquationGraph::locate_matrix(RankId r, GlobalIndex row,
                                  GlobalIndex col) const {
  const auto& rows = layout_->numbering.rows;
  const RankSystem& sys = ranks_[static_cast<std::size_t>(r)];
  if (rows.owns(r, row)) {
    const auto& ors = owned_row_start_[static_cast<std::size_t>(r)];
    const auto lr = static_cast<std::size_t>(row - rows.first_row(r));
    // Binary search for the column within the row (§3.2's binary-search
    // write-location strategy; rows are short so this is also the linear
    // regime).
    const auto b = sys.owned.cols.begin() + static_cast<std::ptrdiff_t>(ors[lr]);
    const auto e = sys.owned.cols.begin() + static_cast<std::ptrdiff_t>(ors[lr + 1]);
    const auto it = std::lower_bound(b, e, col);
    EXW_REQUIRE(it != e && *it == col, "pattern entry missing (owned)");
    return static_cast<Slot>(it - sys.owned.cols.begin());
  }
  const auto& srows = shared_rows_[static_cast<std::size_t>(r)];
  const auto& sstart = shared_row_start_[static_cast<std::size_t>(r)];
  const auto rit = std::lower_bound(srows.begin(), srows.end(), row);
  EXW_REQUIRE(rit != srows.end() && *rit == row, "pattern row missing (shared)");
  const auto ri = static_cast<std::size_t>(rit - srows.begin());
  const auto b = sys.shared.cols.begin() + static_cast<std::ptrdiff_t>(sstart[ri]);
  const auto e = sys.shared.cols.begin() + static_cast<std::ptrdiff_t>(sstart[ri + 1]);
  const auto it = std::lower_bound(b, e, col);
  EXW_REQUIRE(it != e && *it == col, "pattern entry missing (shared)");
  return encode_shared(static_cast<std::size_t>(it - sys.shared.cols.begin()));
}

Slot EquationGraph::locate_rhs(RankId r, GlobalIndex row) const {
  const auto& rows = layout_->numbering.rows;
  if (rows.owns(r, row)) {
    return (row - rows.first_row(r)).value();
  }
  const RankSystem& sys = ranks_[static_cast<std::size_t>(r)];
  const auto it = std::lower_bound(sys.rhs_shared.rows.begin(),
                                   sys.rhs_shared.rows.end(), row);
  EXW_REQUIRE(it != sys.rhs_shared.rows.end() && *it == row,
              "rhs pattern row missing");
  return encode_shared(
      static_cast<std::size_t>(it - sys.rhs_shared.rows.begin()));
}

void EquationGraph::zero_values() {
  for (auto& sys : ranks_) {
    sys.zero_values();
  }
}

void EquationGraph::apply(RankId r, Slot slot, Real v, bool atomic) {
  EXW_CONTRACT_CHECK_WRITE(r, "EquationGraph::apply");
  RankSystem& sys = ranks_[static_cast<std::size_t>(r)];
  Real& target = slot >= 0
                     ? sys.owned.vals[static_cast<std::size_t>(slot)]
                     : sys.shared.vals[static_cast<std::size_t>(-slot - 1)];
  if (atomic) {
    std::atomic_ref<Real>(target).fetch_add(v, std::memory_order_relaxed);
  } else {
    target += v;
  }
}

void EquationGraph::apply_rhs(RankId r, Slot slot, Real v, bool atomic) {
  EXW_CONTRACT_CHECK_WRITE(r, "EquationGraph::apply_rhs");
  RankSystem& sys = ranks_[static_cast<std::size_t>(r)];
  Real& target = slot >= 0
                     ? sys.rhs_owned[static_cast<std::size_t>(slot)]
                     : sys.rhs_shared.vals[static_cast<std::size_t>(-slot - 1)];
  if (atomic) {
    std::atomic_ref<Real>(target).fetch_add(v, std::memory_order_relaxed);
  } else {
    target += v;
  }
}

void EquationGraph::add_edge(std::size_t edge_id, const std::array<Real, 4>& m,
                             const std::array<Real, 2>& rhs, bool atomic) {
  const EdgeSlots& s = edge_slots_[edge_id];
  if (s.aa != kNoSlot) {
    apply(s.rank, s.aa, m[0], atomic);
    apply(s.rank, s.ab, m[1], atomic);
    apply_rhs(s.rank, s.rhs_a, rhs[0], atomic);
  }
  if (s.bb != kNoSlot) {
    apply(s.rank, s.ba, m[2], atomic);
    apply(s.rank, s.bb, m[3], atomic);
    apply_rhs(s.rank, s.rhs_b, rhs[1], atomic);
  }
}

void EquationGraph::add_node(GlobalIndex node, Real diag, Real rhs,
                             bool atomic) {
  const NodeSlots& s = node_slots_[static_cast<std::size_t>(node)];
  apply(s.rank, s.diag, diag, atomic);
  apply_rhs(s.rank, s.rhs, rhs, atomic);
}

void EquationGraph::zero_rhs() {
  for (auto& sys : ranks_) {
    sys.zero_rhs();
  }
}

void EquationGraph::add_edge_rhs(std::size_t edge_id,
                                 const std::array<Real, 2>& rhs, bool atomic) {
  const EdgeSlots& s = edge_slots_[edge_id];
  if (s.rhs_a != kNoSlot) {
    apply_rhs(s.rank, s.rhs_a, rhs[0], atomic);
  }
  if (s.rhs_b != kNoSlot) {
    apply_rhs(s.rank, s.rhs_b, rhs[1], atomic);
  }
}

void EquationGraph::add_node_rhs(GlobalIndex node, Real rhs, bool atomic) {
  const NodeSlots& s = node_slots_[static_cast<std::size_t>(node)];
  apply_rhs(s.rank, s.rhs, rhs, atomic);
}

std::vector<double> EquationGraph::pattern_nnz_per_rank() const {
  std::vector<double> out(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    out[r] = static_cast<double>(ranks_[r].owned.nnz() + ranks_[r].shared.nnz());
  }
  return out;
}

}  // namespace exw::assembly
