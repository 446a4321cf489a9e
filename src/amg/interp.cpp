#include "amg/interp.hpp"

#include <algorithm>
#include <cmath>

#include "assembly/global.hpp"
#include "common/error.hpp"

namespace exw::amg {

namespace {

/// Charge one halo exchange of per-boundary-column (cf, coarse id) data.
void charge_cf_exchange(const linalg::ParCsr& a) {
  auto& tracer = a.runtime().tracer();
  for (RankId r{0}; r.value() < a.nranks(); ++r) {
    const auto n = static_cast<double>(a.block(r).col_map.size());
    if (n > 0) {
      tracer.kernel(r, n, n * (sizeof(GlobalIndex) + 1.0));
    }
    for (const auto& recv : a.comm().recvs[static_cast<std::size_t>(r)]) {
      tracer.message(recv.src, r,
                     static_cast<double>(recv.count.value()) * (sizeof(GlobalIndex) + 1.0));
    }
  }
}

/// Visit every off-diagonal entry of row i on rank r as
/// (global col, value, strong?).
template <typename Fn>
void for_each_offdiag(const linalg::ParCsr& a, const Strength& s, RankId r,
                      LocalIndex i, Fn&& fn) {
  const auto& b = a.block(r);
  const GlobalIndex col0 = a.cols().first_row(r);
  for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
    const LocalIndex c = b.diag.cols()[k];
    if (c == i) continue;
    fn(col0 + c.value(), b.diag.vals()[k],
       s.strong_diag(r, static_cast<std::size_t>(k)));
  }
  for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
    fn(b.col_map[static_cast<std::size_t>(
           b.offd.cols()[k])],
       b.offd.vals()[k],
       s.strong_offd(r, static_cast<std::size_t>(k)));
  }
}

/// Rank r's block of an interpolation-shaped matrix from its COO rows.
linalg::RankBlock p_block(sparse::Coo& coo, const par::RowPartition& fine,
                          const par::RowPartition& coarse, RankId r) {
  coo.normalize();
  return assembly::split_diag_offd(coo, fine, coarse, r);
}

/// Classical direct and BAMG-direct interpolation (one-pass, row-local).
linalg::ParCsr build_direct(const linalg::ParCsr& a, const Strength& s,
                            const Coarsening& c, bool bamg) {
  const int nranks = a.nranks();
  const auto& rows = a.rows();
  auto& tracer = a.runtime().tracer();
  charge_cf_exchange(a);

  std::vector<linalg::RankBlock> blocks(static_cast<std::size_t>(nranks));
  a.runtime().parallel_for_ranks([&](RankId r) {
    const auto& b = a.block(r);
    const GlobalIndex row0 = rows.first_row(r);
    sparse::Coo coo;
    const auto& diag_vals = b.diag.diagonal();
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      const GlobalIndex gi = row0 + i.value();
      if (c.cf[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] ==
          CF::kCoarse) {
        coo.push(gi, c.coarse_id[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)], 1.0);
        continue;
      }
      // Scan the row once, classifying neighbors.
      Real sum_all = 0, sum_strong_c = 0, sum_strong_f = 0, sum_weak = 0;
      GlobalIndex n_strong_c{0};
      for_each_offdiag(a, s, r, i, [&](GlobalIndex g, Real v, bool strong) {
        sum_all += v;
        const bool is_c = c.cf_of(rows, g) == CF::kCoarse;
        if (strong && is_c) {
          sum_strong_c += v;
          n_strong_c += 1;
        } else if (strong) {
          sum_strong_f += v;
        } else {
          sum_weak += v;
        }
      });
      if (n_strong_c == GlobalIndex{0}) {
        continue;  // PMIS F-point with no C-neighbor: empty row (§4.1)
      }
      const Real aii = diag_vals[static_cast<std::size_t>(i)];
      if (bamg) {
        // Eq. (2): distribute strong-F couplings uniformly over the strong
        // C set; lump weak couplings into the diagonal.
        const Real denom = aii + sum_weak;
        if (denom == 0.0) continue;
        const Real spread = sum_strong_f / static_cast<Real>(n_strong_c.value());
        for_each_offdiag(a, s, r, i, [&](GlobalIndex g, Real v, bool strong) {
          if (strong && c.cf_of(rows, g) == CF::kCoarse) {
            coo.push(gi, c.coarse_of(rows, g), -(v + spread) / denom);
          }
        });
      } else {
        if (aii == 0.0 || sum_strong_c == 0.0) continue;
        const Real alpha = sum_all / sum_strong_c;
        for_each_offdiag(a, s, r, i, [&](GlobalIndex g, Real v, bool strong) {
          if (strong && c.cf_of(rows, g) == CF::kCoarse) {
            coo.push(gi, c.coarse_of(rows, g), -alpha * v / aii);
          }
        });
      }
    }
    const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
    tracer.kernel(r, 4.0 * nnz, 2.0 * nnz * (sizeof(Real) + sizeof(LocalIndex)));
    blocks[static_cast<std::size_t>(r)] = p_block(coo, rows, c.coarse_rows, r);
  });
  return linalg::ParCsr(a.runtime(), rows, c.coarse_rows, std::move(blocks));
}

/// Matrix-matrix extended interpolation ("MM-ext", optionally "+i").
linalg::ParCsr build_mm_ext(const linalg::ParCsr& a, const Strength& s,
                            const Coarsening& c, bool plus_i) {
  const auto nranks = static_cast<std::size_t>(a.nranks());
  const auto& rows = a.rows();
  par::Runtime& rt = a.runtime();
  auto& tracer = rt.tracer();
  charge_cf_exchange(a);

  // Per-row beta (sum of strong-C couplings) and gamma (sum of weak
  // couplings), and the scaled FC operator Y = D_beta^-1 A^s_FC as a
  // distributed matrix over the *fine* row partition (C rows empty).
  std::vector<RealVector> beta(nranks);
  std::vector<RealVector> gamma(nranks);
  // Strong F-F couplings per row: (global col, value) lists.
  std::vector<std::vector<std::pair<GlobalIndex, Real>>> ff(nranks);
  std::vector<std::vector<std::size_t>> ff_ptr(nranks);
  // Distance-2 reach: the Y rows of external strong-F neighbors.
  std::vector<std::vector<GlobalIndex>> needed(nranks);
  std::vector<linalg::RankBlock> y_blocks(nranks);

  rt.parallel_for_ranks([&](RankId r) {
    const auto ri = static_cast<std::size_t>(r);
    const GlobalIndex row0 = rows.first_row(r);
    const auto nlocal = static_cast<std::size_t>(rows.local_size(r));
    auto& br = beta[ri];
    auto& gr = gamma[ri];
    auto& ffr = ff[ri];
    br.assign(nlocal, 0.0);
    gr.assign(nlocal, 0.0);
    ff_ptr[ri].assign(nlocal + 1, 0);
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      const bool is_f =
          c.cf[ri][static_cast<std::size_t>(i)] != CF::kCoarse;
      if (is_f) {
        for_each_offdiag(a, s, r, i, [&](GlobalIndex g, Real v, bool strong) {
          const bool is_c = c.cf_of(rows, g) == CF::kCoarse;
          if (!strong) {
            gr[static_cast<std::size_t>(i)] += v;
          } else if (is_c) {
            br[static_cast<std::size_t>(i)] += v;
          } else {
            ffr.emplace_back(g, v);
          }
        });
      }
      ff_ptr[ri][static_cast<std::size_t>(i) + 1] = ffr.size();
    }
    // Y rows: strong-C entries scaled by 1/beta.
    sparse::Coo yc;
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      const GlobalIndex gi = row0 + i.value();
      if (c.cf[ri][static_cast<std::size_t>(i)] == CF::kCoarse) {
        continue;
      }
      const Real bi = br[static_cast<std::size_t>(i)];
      if (bi == 0.0) continue;
      for_each_offdiag(a, s, r, i, [&](GlobalIndex g, Real v, bool strong) {
        if (strong && c.cf_of(rows, g) == CF::kCoarse) {
          yc.push(gi, c.coarse_of(rows, g), v / bi);
        }
      });
    }
    const auto nnz = static_cast<double>(a.block(r).diag.nnz() +
                                         a.block(r).offd.nnz());
    tracer.kernel(r, 4.0 * nnz, 2.0 * nnz * (sizeof(Real) + sizeof(LocalIndex)));
    y_blocks[ri] = p_block(yc, rows, c.coarse_rows, r);
    for (const auto& [g, v] : ffr) {
      if (!rows.owns(r, g)) needed[ri].push_back(g);
    }
  });
  const linalg::ParCsr y(rt, rows, c.coarse_rows, std::move(y_blocks));
  const auto ext = fetch_external_rows(y, needed);

  // Row helper: emit Y(f, :) as (global coarse col, val) pairs.
  auto emit_y_row = [&](RankId r, GlobalIndex gf,
                        std::vector<std::pair<GlobalIndex, Real>>& out,
                        Real scale) {
    if (rows.owns(r, gf)) {
      const auto li = rows.to_local(r, gf);
      const auto& yb = y.block(r);
      const GlobalIndex c0 = c.coarse_rows.first_row(r);
      for (EntryOffset k = yb.diag.row_begin(li); k < yb.diag.row_end(li); ++k) {
        out.emplace_back(c0 + yb.diag.cols()[k].value(),
                         scale * yb.diag.vals()[k]);
      }
      for (EntryOffset k = yb.offd.row_begin(li); k < yb.offd.row_end(li); ++k) {
        out.emplace_back(
            yb.col_map[static_cast<std::size_t>(
                yb.offd.cols()[k])],
            scale * yb.offd.vals()[k]);
      }
    } else {
      const auto& e = ext[static_cast<std::size_t>(r)];
      const std::size_t idx = e.find(gf);
      if (idx == static_cast<std::size_t>(-1)) return;
      for (std::size_t k = e.row_ptr[idx]; k < e.row_ptr[idx + 1]; ++k) {
        out.emplace_back(e.cols[k], scale * e.vals[k]);
      }
    }
  };

  std::vector<linalg::RankBlock> blocks(nranks);
  rt.parallel_for_ranks([&](RankId r) {
    const auto ri = static_cast<std::size_t>(r);
    const GlobalIndex row0 = rows.first_row(r);
    const auto& diag_vals = a.block(r).diag.diagonal();
    sparse::Coo coo;
    std::vector<std::pair<GlobalIndex, Real>> acc;
    std::vector<std::pair<GlobalIndex, Real>> merged;
    double flops = 0;
    for (LocalIndex i{0}; i < rows.local_size(r); ++i) {
      const GlobalIndex gi = row0 + i.value();
      if (c.cf[ri][static_cast<std::size_t>(i)] == CF::kCoarse) {
        coo.push(gi, c.coarse_id[ri][static_cast<std::size_t>(i)], 1.0);
        continue;
      }
      acc.clear();
      // (A^s_FF + D_beta) row i applied to Y: strong-F neighbors' rows
      // plus the diagonal beta_i * Y(i, :).
      const auto p0 = ff_ptr[ri][static_cast<std::size_t>(i)];
      const auto p1 = ff_ptr[ri][static_cast<std::size_t>(i) + 1];
      for (std::size_t k = p0; k < p1; ++k) {
        const auto& [gf, v] = ff[ri][k];
        emit_y_row(r, gf, acc, v);
      }
      const Real bi = beta[ri][static_cast<std::size_t>(i)];
      if (bi != 0.0) {
        emit_y_row(r, gi, acc, bi);
      }
      if (acc.empty()) continue;
      flops += 2.0 * static_cast<double>(acc.size());
      // Combine duplicates and scale by -(a_ii + gamma_i)^-1. The sort is
      // not stable: its tie order is the addend order of each sum.
      std::sort(acc.begin(), acc.end(),
                [](const auto& x, const auto& z) { return x.first < z.first; });
      const Real denom = diag_vals[static_cast<std::size_t>(i)] +
                         gamma[ri][static_cast<std::size_t>(i)];
      if (denom == 0.0) continue;
      const Real scale = -1.0 / denom;
      std::size_t k = 0;
      Real row_sum = 0;
      merged.clear();
      while (k < acc.size()) {
        GlobalIndex col = acc[k].first;
        Real v = 0;
        while (k < acc.size() && acc[k].first == col) {
          v += acc[k].second;
          ++k;
        }
        merged.emplace_back(col, scale * v);
        row_sum += scale * v;
      }
      // "+i": rescale so constants interpolate exactly.
      const Real fix = (plus_i && std::abs(row_sum) > 1e-12) ? 1.0 / row_sum : 1.0;
      for (const auto& [col, v] : merged) {
        coo.push(gi, col, v * fix);
      }
    }
    tracer.kernel(r, flops, flops * (sizeof(Real) + sizeof(GlobalIndex)));
    blocks[ri] = p_block(coo, rows, c.coarse_rows, r);
  });
  return linalg::ParCsr(rt, rows, c.coarse_rows, std::move(blocks));
}

}  // namespace

linalg::ParCsr build_interpolation(const linalg::ParCsr& a, const Strength& s,
                                   const Coarsening& c, const AmgConfig& cfg) {
  linalg::ParCsr p;
  switch (cfg.interp) {
    case InterpType::kDirect:
      p = build_direct(a, s, c, /*bamg=*/false);
      break;
    case InterpType::kBamg:
      p = build_direct(a, s, c, /*bamg=*/true);
      break;
    case InterpType::kMmExt:
      p = build_mm_ext(a, s, c, /*plus_i=*/false);
      break;
    case InterpType::kMmExtI:
      p = build_mm_ext(a, s, c, /*plus_i=*/true);
      break;
  }
  truncate_interpolation(p, cfg.pmax);
  return p;
}

void truncate_interpolation(linalg::ParCsr& p, int pmax) {
  if (pmax <= 0) return;
  auto& tracer = p.runtime().tracer();
  p.runtime().parallel_for_ranks([&](RankId r) {
    auto& b = p.block_mut(r);
    // Work on the concatenated (diag, offd) row with a shared budget.
    sparse::Csr new_diag(b.diag.nrows(), b.diag.ncols());
    sparse::Csr new_offd(b.offd.nrows(), b.offd.ncols());
    std::vector<std::pair<Real, std::pair<int, LocalIndex>>> entries;
    for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
      entries.clear();
      Real row_sum = 0;
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        const Real v = b.diag.vals()[k];
        entries.push_back({v, {0, b.diag.cols()[k]}});
        row_sum += v;
      }
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        const Real v = b.offd.vals()[k];
        entries.push_back({v, {1, b.offd.cols()[k]}});
        row_sum += v;
      }
      // Keep the pmax largest |entries|.
      std::sort(entries.begin(), entries.end(),
                [](const auto& x, const auto& z) {
                  return std::abs(x.first) > std::abs(z.first);
                });
      const std::size_t keep =
          std::min<std::size_t>(entries.size(), static_cast<std::size_t>(pmax));
      Real kept_sum = 0;
      for (std::size_t k = 0; k < keep; ++k) kept_sum += entries[k].first;
      const Real fix =
          (std::abs(kept_sum) > 1e-300 && keep < entries.size())
              ? row_sum / kept_sum
              : 1.0;
      // Re-emit in ascending column order per block.
      std::sort(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(keep),
                [](const auto& x, const auto& z) { return x.second < z.second; });
      for (std::size_t k = 0; k < keep; ++k) {
        const auto& [v, where] = entries[k];
        if (where.first == 0) {
          new_diag.cols_vec().push_back(where.second);
          new_diag.vals_vec().push_back(v * fix);
        } else {
          new_offd.cols_vec().push_back(where.second);
          new_offd.vals_vec().push_back(v * fix);
        }
      }
      new_diag.row_ptr_mut()[static_cast<std::size_t>(i) + 1] =
          EntryOffset{new_diag.cols_vec().size()};
      new_offd.row_ptr_mut()[static_cast<std::size_t>(i) + 1] =
          EntryOffset{new_offd.cols_vec().size()};
    }
    const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
    tracer.kernel(r, 4.0 * nnz, 2.0 * nnz * sizeof(Real));
    b.diag = std::move(new_diag);
    b.offd = std::move(new_offd);
    // Note: col_map may now contain unreferenced columns; they only cost
    // a few halo values and keep the comm package valid.
  });
}

}  // namespace exw::amg
