#include "amg/rap.hpp"

#include <algorithm>

#include "assembly/global.hpp"
#include "common/error.hpp"

namespace exw::amg {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Dense-marker row accumulator over a product's global output columns.
/// Each column's terms are summed in push order; with `zero_init` the
/// first one is added onto 0.0 (the row products' convention), otherwise
/// it seeds the sum as reduce_by_key does. finish() emits the row's
/// columns, ascending or in first-touch order.
class RowAccumulator {
 public:
  RowAccumulator(GlobalIndex ncols, bool zero_init)
      : marker_(static_cast<std::size_t>(ncols), kNone),
        zero_init_(zero_init) {}

  /// Add v to column `col`.
  void add(GlobalIndex col, Real v) {
    std::size_t& slot = marker_[static_cast<std::size_t>(col)];
    if (slot == kNone) {
      slot = vals_.size();
      cols_.push_back(col);
      vals_.push_back(zero_init_ ? 0.0 + v : v);
    } else {
      vals_[slot] += v;
    }
  }

  /// emit(col, value) per column; then reset for the next row.
  template <typename Emit>
  void finish(bool ascending, Emit&& emit) {
    if (ascending) std::sort(cols_.begin(), cols_.end());
    for (const GlobalIndex col : cols_) {
      std::size_t& slot = marker_[static_cast<std::size_t>(col)];
      emit(col, vals_[slot]);
      slot = kNone;
    }
    cols_.clear();
    vals_.clear();
  }

 private:
  std::vector<std::size_t> marker_;  ///< column -> slot, or kNone
  std::vector<GlobalIndex> cols_;    ///< the row's columns
  RealVector vals_;
  bool zero_init_;
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
                            sparse::SpGemmAlgo algo) {
  EXW_REQUIRE(a.global_cols() == p.global_rows(), "RAP shape mismatch");
  par::Runtime& rt = a.runtime();
  auto& tracer = rt.tracer();
  const auto nranks = static_cast<std::size_t>(a.nranks());
  const auto& fine = a.rows();
  const auto& coarse = p.cols();

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
    const GlobalIndex pc0 = coarse.first_row(r);
    const auto a_ext = ext_rows_of(ab.col_map, er);
    double products = 0;

    // AP(i, :) = sum_k A(i, k) P(k, :), pushed in A's row order, each P
    // row diag then offd. AP's rows keep their first-touch column order:
    // only P^T AP's rows need ascending columns, and its addend order
    // does not depend on it.
    LocalRows ap;
    RowAccumulator ap_acc(coarse.global_size(), /*zero_init=*/true);
    for (LocalIndex i{0}; i < fine.local_size(r); ++i) {
      for (EntryOffset k = ab.diag.row_begin(i); k < ab.diag.row_end(i); ++k) {
        const LocalIndex kc = ab.diag.cols()[k];
        const Real av = ab.diag.vals()[k];
        for (EntryOffset q = pb.diag.row_begin(kc); q < pb.diag.row_end(kc);
             ++q) {
          ap_acc.add(pc0 + pb.diag.cols()[q].value(), av * pb.diag.vals()[q]);
        }
        for (EntryOffset q = pb.offd.row_begin(kc); q < pb.offd.row_end(kc);
             ++q) {
          ap_acc.add(pb.col_map[static_cast<std::size_t>(pb.offd.cols()[q])],
                     av * pb.offd.vals()[q]);
        }
        products += static_cast<double>(pb.diag.row_nnz(kc).value() +
                                        pb.offd.row_nnz(kc).value());
      }
      for (EntryOffset k = ab.offd.row_begin(i); k < ab.offd.row_end(i); ++k) {
        const std::size_t ei = a_ext[static_cast<std::size_t>(ab.offd.cols()[k])];
        if (ei == kNone) continue;
        const Real av = ab.offd.vals()[k];
        for (std::size_t q = er.row_ptr[ei]; q < er.row_ptr[ei + 1]; ++q) {
          ap_acc.add(er.cols[q], av * er.vals[q]);
        }
        products += static_cast<double>(er.row_ptr[ei + 1] - er.row_ptr[ei]);
      }
      ap_acc.finish(/*ascending=*/false, [&](GlobalIndex col, Real v) {
        ap.col.push_back(col);
        ap.val.push_back(v);
      });
      ap.ptr.push_back(ap.col.size());
    }

    // (P^T AP)(c, :) = sum_i P(i, c) AP(i, :) over the fine rows i of
    // column c of P, ascending, the first term seeding each sum: the
    // addend order reduce_by_key gives the stably (row, col)-sorted
    // outer-product triples (P(i, c), AP(i, :)), so each entry is the
    // sort-expand product's bit for bit. P's diag columns are the coarse
    // rows this rank owns, its offd columns the rows it shares with their
    // owners; both come out sorted and duplicate-free.
    RowAccumulator acc(coarse.global_size(), /*zero_init=*/false);
    const auto coarse_rows = [&](const sparse::Csr& pm, auto&& row_of,
                                 sparse::Coo& out) {
      const Columns cols(pm);
      for (std::size_t c = 0; c + 1 < cols.ptr.size(); ++c) {
        for (std::size_t t = cols.ptr[c]; t < cols.ptr[c + 1]; ++t) {
          const auto i = static_cast<std::size_t>(cols.row[t]);
          const Real pv = pm.vals()[cols.entry[t]];
          for (std::size_t m = ap.ptr[i]; m < ap.ptr[i + 1]; ++m) {
            acc.add(ap.col[m], pv * ap.val[m]);
          }
          products += static_cast<double>(ap.ptr[i + 1] - ap.ptr[i]);
        }
        const GlobalIndex row = row_of(c);
        acc.finish(/*ascending=*/true,
                   [&](GlobalIndex col, Real v) { out.push(row, col, v); });
      }
    };
    coarse_rows(pb.diag, [&](std::size_t c) { return pc0 + c; }, owned[ri]);
    coarse_rows(pb.offd, [&](std::size_t c) { return pb.col_map[c]; },
                shared[ri]);
    tracer.kernel(r, 2.0 * products,
                  sort_penalty * products * (sizeof(Real) + sizeof(GlobalIndex)));
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
