#include "amg/soc.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace exw::amg {

Strength compute_strength(const linalg::ParCsr& a, Real theta) {
  const auto nranks = static_cast<std::size_t>(a.nranks());
  Strength s;
  s.diag.resize(nranks);
  s.offd.resize(nranks);
  auto& tracer = a.runtime().tracer();

  a.runtime().parallel_for_ranks([&](RankId r) {
    const auto& b = a.block(r);
    auto& sd = s.diag[static_cast<std::size_t>(r)];
    auto& so = s.offd[static_cast<std::size_t>(r)];
    sd.assign(b.diag.nnz(), 0);
    so.assign(b.offd.nnz(), 0);
    for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
      // Row-wise threshold: strongest negative off-diagonal coupling.
      Real max_neg = 0.0;
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        if (b.diag.cols()[k] == i) continue;
        max_neg = std::max(max_neg, -b.diag.vals()[k]);
      }
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        max_neg = std::max(max_neg, -b.offd.vals()[k]);
      }
      if (max_neg <= 0.0) continue;  // no negative couplings: all weak
      const Real cut = theta * max_neg;
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        if (b.diag.cols()[k] == i) continue;
        if (-b.diag.vals()[k] >= cut) {
          sd[static_cast<std::size_t>(k)] = 1;
        }
      }
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        if (-b.offd.vals()[k] >= cut) {
          so[static_cast<std::size_t>(k)] = 1;
        }
      }
    }
    const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
    tracer.kernel(r, 2.0 * nnz, nnz * (sizeof(Real) + sizeof(LocalIndex) + 1.0));
  });
  return s;
}

std::vector<double> strong_counts(const Strength& s) {
  std::vector<double> out(s.diag.size(), 0.0);
  for (std::size_t r = 0; r < s.diag.size(); ++r) {
    for (auto v : s.diag[r]) out[r] += v;
    for (auto v : s.offd[r]) out[r] += v;
  }
  return out;
}

}  // namespace exw::amg
