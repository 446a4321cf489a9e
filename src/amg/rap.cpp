#include "amg/rap.hpp"

#include <algorithm>
#include <span>

#include "assembly/global.hpp"
#include "common/error.hpp"

namespace exw::amg {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Dense-marker row accumulator over a product's global output columns.
/// Each column's terms are summed in push order; with `zero_init` the
/// first one is added onto 0.0 (the row products' convention), otherwise
/// it seeds the sum as reduce_by_key does. finish() emits the row's
/// columns, ascending or in first-touch order, and leaves, per
/// first-touch slot, the column's output position.
class RowAccumulator {
 public:
  RowAccumulator(GlobalIndex ncols, bool zero_init)
      : marker_(static_cast<std::size_t>(ncols), kNone),
        zero_init_(zero_init) {}

  /// Add v to column `col`; returns the column's slot in this row.
  std::size_t add(GlobalIndex col, Real v) {
    std::size_t& slot = marker_[static_cast<std::size_t>(col)];
    if (slot == kNone) {
      slot = vals_.size();
      cols_.push_back(col);
      vals_.push_back(zero_init_ ? 0.0 + v : v);
    } else {
      vals_[slot] += v;
    }
    return slot;
  }

  /// emit(col, value) per column; then reset for the next row.
  template <typename Emit>
  void finish(bool ascending, Emit&& emit) {
    order_.resize(vals_.size());
    if (ascending) std::sort(cols_.begin(), cols_.end());
    for (std::size_t pos = 0; pos < cols_.size(); ++pos) {
      std::size_t& slot = marker_[static_cast<std::size_t>(cols_[pos])];
      emit(cols_[pos], vals_[slot]);
      order_[slot] = pos;
      slot = kNone;
    }
    cols_.clear();
    vals_.clear();
  }

  /// Output position of each slot of the last finished row.
  std::span<const std::size_t> order() const { return order_; }

 private:
  std::vector<std::size_t> marker_;  ///< column -> slot, or kNone
  std::vector<GlobalIndex> cols_;    ///< the row's columns
  RealVector vals_;
  std::vector<std::size_t> order_;
  bool zero_init_;
};

/// The (left, right) term slots of one accumulated row, in push order,
/// appended to a ProductPlan grouped by output entry: each entry's term
/// list is then its accumulator's addend order.
class RowTerms {
 public:
  void push(std::size_t slot, std::size_t l, std::size_t r) {
    slot_.push_back(slot);
    l_.push_back(l);
    r_.push_back(r);
  }

  /// Append one plan entry per output position; `order` maps each slot
  /// to its output position (RowAccumulator::order()).
  void group_into(std::span<const std::size_t> order,
                  sparse::ProductPlan& plan) {
    start_.assign(order.size() + 1, 0);
    for (const std::size_t s : slot_) ++start_[order[s] + 1];
    for (std::size_t e = 0; e < order.size(); ++e) start_[e + 1] += start_[e];
    ls_.resize(slot_.size());
    rs_.resize(slot_.size());
    next_.assign(start_.begin(), start_.end() - 1);
    for (std::size_t t = 0; t < slot_.size(); ++t) {
      const std::size_t at = next_[order[slot_[t]]]++;
      ls_[at] = l_[t];
      rs_[at] = r_[t];
    }
    const std::span<const std::size_t> ls(ls_), rs(rs_);
    for (std::size_t e = 0; e < order.size(); ++e) {
      plan.append(ls.subspan(start_[e], start_[e + 1] - start_[e]),
                  rs.subspan(start_[e], start_[e + 1] - start_[e]));
    }
    slot_.clear();
    l_.clear();
    r_.clear();
  }

 private:
  std::vector<std::size_t> slot_, l_, r_;
  std::vector<std::size_t> start_, next_, ls_, rs_;
};

/// Column-major view of a CSR block: the entries of column c, by
/// ascending row, are entry[ptr[c] .. ptr[c + 1]) of rows `row`.
struct Columns {
  std::vector<std::size_t> ptr;
  std::vector<LocalIndex> row;
  std::vector<EntryOffset> entry;

  explicit Columns(const sparse::Csr& m)
      : ptr(static_cast<std::size_t>(m.ncols()) + 1, 0),
        row(m.nnz()),
        entry(m.nnz()) {
    for (const LocalIndex c : m.cols().raw()) {
      ++ptr[static_cast<std::size_t>(c) + 1];
    }
    for (std::size_t c = 0; c + 1 < ptr.size(); ++c) ptr[c + 1] += ptr[c];
    std::vector<std::size_t> next(ptr.begin(), ptr.end() - 1);
    for (LocalIndex i{0}; i < m.nrows(); ++i) {
      for (EntryOffset k = m.row_begin(i); k < m.row_end(i); ++k) {
        const std::size_t at = next[static_cast<std::size_t>(m.cols()[k])]++;
        row[at] = i;
        entry[at] = k;
      }
    }
  }
};

/// A rank's rows of a product, CSR over global columns.
struct LocalRows {
  std::vector<std::size_t> ptr{0};
  std::vector<GlobalIndex> col;
  RealVector val;
};

/// Index in `ext` of every column of `col_map` (npos when not fetched).
std::vector<std::size_t> ext_rows_of(const std::vector<GlobalIndex>& col_map,
                                     const linalg::ExtRows& ext) {
  std::vector<std::size_t> out(col_map.size());
  for (std::size_t q = 0; q < col_map.size(); ++q) {
    out[q] = ext.find(col_map[q]);
  }
  return out;
}

}  // namespace

linalg::ParCsr galerkin_rap(const linalg::ParCsr& a, const linalg::ParCsr& p,
                            sparse::SpGemmAlgo algo, RapRecord* record) {
  EXW_REQUIRE(a.global_cols() == p.global_rows(), "RAP shape mismatch");
  par::Runtime& rt = a.runtime();
  auto& tracer = rt.tracer();
  const auto nranks = static_cast<std::size_t>(a.nranks());
  const auto& fine = a.rows();
  const auto& coarse = p.cols();

  if (record) {
    // assign() resets any previous recording — the aggressive-coarsening
    // path runs galerkin_rap twice per level and keeps only the last.
    record->ranks.assign(nranks, {});
    record->owned.assign(nranks, {});
    record->shared.assign(nranks, {});
  }

  // Fetch external P rows for A's offd columns.
  std::vector<std::vector<GlobalIndex>> needed(nranks);
  for (RankId r{0}; r.value() < a.nranks(); ++r) {
    needed[static_cast<std::size_t>(r)] = a.block(r).col_map;
  }
  const auto ext = fetch_external_rows(p, needed);

  // The charge prices the SpGEMM flavor: the sort-expand variant pays an
  // extra sort of all partial products (cuSPARSE-style), the hash variant
  // streams them once. Both accumulate row by row here.
  const double sort_penalty =
      algo == sparse::SpGemmAlgo::kSort ? 8.0 : 2.0;

  std::vector<sparse::Coo> owned(nranks);
  std::vector<sparse::Coo> shared(nranks);
  rt.parallel_for_ranks([&](RankId r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto& ab = a.block(r);
    const auto& pb = p.block(r);
    const auto& er = ext[ri];
    const std::size_t p_diag_nnz = pb.diag.nnz();
    const std::size_t p_offd_nnz = pb.offd.nnz();
    const std::size_t a_diag_nnz = ab.diag.nnz();
    const GlobalIndex pc0 = coarse.first_row(r);
    const auto a_ext = ext_rows_of(ab.col_map, er);
    double products = 0;

    RapRecord::Rank* rec = record ? &record->ranks[ri] : nullptr;
    if (rec) {
      rec->a_diag_nnz = a_diag_nnz;
      rec->a_offd_nnz = ab.offd.nnz();
      rec->ap.zero_init = true;  // AP rows add onto an explicit 0.0
      auto& pf = rec->p_flat;
      pf.reserve(p_diag_nnz + p_offd_nnz + er.vals.size());
      pf.insert(pf.end(), pb.diag.vals().begin(), pb.diag.vals().end());
      pf.insert(pf.end(), pb.offd.vals().begin(), pb.offd.vals().end());
      pf.insert(pf.end(), er.vals.begin(), er.vals.end());
      // The term lists are sized exactly up front: they are the record's
      // bulk, and growing them by doubling would hold up to twice that.
      std::size_t n = 0;
      for (const LocalIndex kc : ab.diag.cols().raw()) {
        n += static_cast<std::size_t>(pb.diag.row_nnz(kc).value() +
                                      pb.offd.row_nnz(kc).value());
      }
      for (const LocalIndex q : ab.offd.cols().raw()) {
        const std::size_t ei = a_ext[static_cast<std::size_t>(q)];
        if (ei != kNone) n += er.row_ptr[ei + 1] - er.row_ptr[ei];
      }
      rec->ap.lslot.reserve(n);
      rec->ap.rslot.reserve(n);
    }
    RowTerms terms;

    // AP(i, :) = sum_k A(i, k) P(k, :), pushed in A's row order, each P
    // row diag then offd; the terms are (a_flat slot, p_flat slot) pairs.
    // AP's rows keep their first-touch column order: only P^T AP's rows
    // need ascending columns, and its addend order does not depend on it.
    LocalRows ap;
    RowAccumulator ap_acc(coarse.global_size(), /*zero_init=*/true);
    for (LocalIndex i{0}; i < fine.local_size(r); ++i) {
      for (EntryOffset k = ab.diag.row_begin(i); k < ab.diag.row_end(i); ++k) {
        const LocalIndex kc = ab.diag.cols()[k];
        const Real av = ab.diag.vals()[k];
        const auto a_slot = static_cast<std::size_t>(k.value());
        for (EntryOffset q = pb.diag.row_begin(kc); q < pb.diag.row_end(kc);
             ++q) {
          const std::size_t slot = ap_acc.add(
              pc0 + pb.diag.cols()[q].value(), av * pb.diag.vals()[q]);
          if (rec) terms.push(slot, a_slot, static_cast<std::size_t>(q.value()));
        }
        for (EntryOffset q = pb.offd.row_begin(kc); q < pb.offd.row_end(kc);
             ++q) {
          const std::size_t slot = ap_acc.add(
              pb.col_map[static_cast<std::size_t>(pb.offd.cols()[q])],
              av * pb.offd.vals()[q]);
          if (rec) {
            terms.push(slot, a_slot,
                       p_diag_nnz + static_cast<std::size_t>(q.value()));
          }
        }
        products += static_cast<double>(pb.diag.row_nnz(kc).value() +
                                        pb.offd.row_nnz(kc).value());
      }
      for (EntryOffset k = ab.offd.row_begin(i); k < ab.offd.row_end(i); ++k) {
        const std::size_t ei = a_ext[static_cast<std::size_t>(ab.offd.cols()[k])];
        if (ei == kNone) continue;
        const Real av = ab.offd.vals()[k];
        const std::size_t a_slot =
            a_diag_nnz + static_cast<std::size_t>(k.value());
        for (std::size_t q = er.row_ptr[ei]; q < er.row_ptr[ei + 1]; ++q) {
          const std::size_t slot = ap_acc.add(er.cols[q], av * er.vals[q]);
          if (rec) terms.push(slot, a_slot, p_diag_nnz + p_offd_nnz + q);
        }
        products += static_cast<double>(er.row_ptr[ei + 1] - er.row_ptr[ei]);
      }
      ap_acc.finish(/*ascending=*/false, [&](GlobalIndex col, Real v) {
        ap.col.push_back(col);
        ap.val.push_back(v);
      });
      ap.ptr.push_back(ap.col.size());
      if (rec) terms.group_into(ap_acc.order(), rec->ap);
    }

    // (P^T AP)(c, :) = sum_i P(i, c) AP(i, :) over the fine rows i of
    // column c of P, ascending, the first term seeding each sum: the
    // addend order reduce_by_key gives the stably (row, col)-sorted
    // outer-product triples (P(i, c), AP(i, :)), so each entry is the
    // sort-expand product's bit for bit. P's diag columns are the coarse
    // rows this rank owns, its offd columns the rows it shares with their
    // owners; both come out sorted and duplicate-free. The terms are
    // (p_flat slot, AP entry) pairs.
    RowAccumulator acc(coarse.global_size(), /*zero_init=*/false);
    const auto coarse_rows = [&](const sparse::Csr& pm, std::size_t p_slot0,
                                 auto&& row_of, sparse::Coo& out,
                                 sparse::ProductPlan* plan) {
      const Columns cols(pm);
      if (plan) {
        std::size_t n = 0;
        for (const LocalIndex i : cols.row) {
          n += ap.ptr[static_cast<std::size_t>(i) + 1] -
               ap.ptr[static_cast<std::size_t>(i)];
        }
        plan->lslot.reserve(n);
        plan->rslot.reserve(n);
      }
      for (std::size_t c = 0; c + 1 < cols.ptr.size(); ++c) {
        for (std::size_t t = cols.ptr[c]; t < cols.ptr[c + 1]; ++t) {
          const auto i = static_cast<std::size_t>(cols.row[t]);
          const EntryOffset k = cols.entry[t];
          const Real pv = pm.vals()[k];
          for (std::size_t m = ap.ptr[i]; m < ap.ptr[i + 1]; ++m) {
            const std::size_t slot = acc.add(ap.col[m], pv * ap.val[m]);
            if (plan) {
              terms.push(slot, p_slot0 + static_cast<std::size_t>(k.value()),
                         m);
            }
          }
          products += static_cast<double>(ap.ptr[i + 1] - ap.ptr[i]);
        }
        const GlobalIndex row = row_of(c);
        acc.finish(/*ascending=*/true,
                   [&](GlobalIndex col, Real v) { out.push(row, col, v); });
        if (plan) terms.group_into(acc.order(), *plan);
      }
    };
    coarse_rows(pb.diag, 0, [&](std::size_t c) { return pc0 + c; }, owned[ri],
                rec ? &rec->owned : nullptr);
    coarse_rows(pb.offd, p_diag_nnz,
                [&](std::size_t c) { return pb.col_map[c]; }, shared[ri],
                rec ? &rec->shared : nullptr);
    tracer.kernel(r, 2.0 * products,
                  sort_penalty * products * (sizeof(Real) + sizeof(GlobalIndex)));
    if (record) {
      record->owned[ri] = owned[ri];
      record->shared[ri] = shared[ri];
    }
  });

  // Reuse the paper's Algorithm 1 for the coarse operator.
  return assembly::assemble_matrix(rt, coarse, coarse, owned, shared);
}

linalg::ParCsr par_matmat(const linalg::ParCsr& a, const linalg::ParCsr& b,
                          sparse::SpGemmAlgo algo) {
  EXW_REQUIRE(a.global_cols() == b.global_rows(), "matmat shape mismatch");
  par::Runtime& rt = a.runtime();
  auto& tracer = rt.tracer();
  const int nranks = a.nranks();
  const auto& mid = b.rows();
  const auto& out_cols = b.cols();

  std::vector<std::vector<GlobalIndex>> needed(static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    needed[static_cast<std::size_t>(r)] = a.block(r).col_map;
  }
  const auto ext = fetch_external_rows(b, needed);
  const double sort_penalty = algo == sparse::SpGemmAlgo::kSort ? 8.0 : 2.0;

  std::vector<linalg::RankBlock> blocks(static_cast<std::size_t>(nranks));
  rt.parallel_for_ranks([&](RankId r) {
    const auto& ab = a.block(r);
    const auto& bb = b.block(r);
    const auto& er = ext[static_cast<std::size_t>(r)];
    const GlobalIndex row0 = a.rows().first_row(r);
    const GlobalIndex bc0 = out_cols.first_row(r);
    const auto a_ext = ext_rows_of(ab.col_map, er);
    RowAccumulator acc(out_cols.global_size(), /*zero_init=*/true);
    sparse::Coo coo;
    double products = 0;
    for (LocalIndex i{0}; i < a.rows().local_size(r); ++i) {
      for (EntryOffset k = ab.diag.row_begin(i); k < ab.diag.row_end(i); ++k) {
        const LocalIndex kc = ab.diag.cols()[k];
        const Real av = ab.diag.vals()[k];
        // kc is owned by r in b's row partition when partitions align;
        // they do by construction (a.cols() == b.rows()).
        for (EntryOffset q = bb.diag.row_begin(kc); q < bb.diag.row_end(kc); ++q) {
          acc.add(bc0 + bb.diag.cols()[q].value(), av * bb.diag.vals()[q]);
        }
        for (EntryOffset q = bb.offd.row_begin(kc); q < bb.offd.row_end(kc); ++q) {
          acc.add(bb.col_map[static_cast<std::size_t>(bb.offd.cols()[q])],
                  av * bb.offd.vals()[q]);
        }
        products += static_cast<double>(bb.diag.row_nnz(kc).value() +
                                        bb.offd.row_nnz(kc).value());
      }
      for (EntryOffset k = ab.offd.row_begin(i); k < ab.offd.row_end(i); ++k) {
        const std::size_t ei = a_ext[static_cast<std::size_t>(ab.offd.cols()[k])];
        if (ei == kNone) continue;
        const Real av = ab.offd.vals()[k];
        for (std::size_t q = er.row_ptr[ei]; q < er.row_ptr[ei + 1]; ++q) {
          acc.add(er.cols[q], av * er.vals[q]);
        }
        products += static_cast<double>(er.row_ptr[ei + 1] - er.row_ptr[ei]);
      }
      acc.finish(/*ascending=*/true, [&](GlobalIndex col, Real v) {
        coo.push(row0 + i.value(), col, v);
      });
    }
    tracer.kernel(r, 2.0 * products,
                  sort_penalty * products * (sizeof(Real) + sizeof(GlobalIndex)));
    blocks[static_cast<std::size_t>(r)] =
        assembly::split_diag_offd(coo, a.rows(), out_cols, r);
  });
  EXW_REQUIRE(mid.global_size() == a.global_cols(), "matmat partitions");
  return linalg::ParCsr(rt, a.rows(), out_cols, std::move(blocks));
}

}  // namespace exw::amg
