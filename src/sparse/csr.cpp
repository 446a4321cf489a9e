#include "sparse/csr.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "sparse/prim.hpp"

namespace exw::sparse {

Csr Csr::from_triples(LocalIndex nrows, LocalIndex ncols,
                      std::vector<LocalIndex> rows,
                      std::vector<LocalIndex> cols,
                      std::vector<Real> vals) {
  EXW_REQUIRE(rows.size() == cols.size() && rows.size() == vals.size(),
              "triple array length mismatch");
  prim::stable_sort_by_key(rows, cols, vals);
  prim::reduce_by_key(rows, cols, vals);

  Csr out(nrows, ncols);
  out.cols_ = std::move(cols);
  out.vals_ = std::move(vals);
  for (LocalIndex r : rows) {
    EXW_ASSERT(r >= LocalIndex{0} && r < nrows);
    out.row_ptr_[static_cast<std::size_t>(r) + 1] += 1;
  }
  for (std::size_t i = 1; i < out.row_ptr_.size(); ++i) {
    out.row_ptr_[i] += out.row_ptr_[i - 1];
  }
  return out;
}

Csr Csr::identity(LocalIndex n) {
  Csr out(n, n);
  out.cols_.resize(static_cast<std::size_t>(n));
  out.vals_.assign(static_cast<std::size_t>(n), 1.0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    out.cols_[i] = LocalIndex{i};
    out.row_ptr_[i + 1] = EntryOffset{i + 1};
  }
  return out;
}

void Csr::spmv(std::span<const Real> x, std::span<Real> y, Real alpha,
               Real beta) const {
  EXW_ASSERT(x.size() >= static_cast<std::size_t>(ncols_));
  EXW_ASSERT(y.size() >= static_cast<std::size_t>(nrows_));
  for (LocalIndex i{0}; i < nrows_; ++i) {
    Real acc = 0.0;
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      acc += vals_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])];
    }
    auto& yi = y[static_cast<std::size_t>(i)];
    yi = beta == 0.0 ? alpha * acc : beta * yi + alpha * acc;
  }
}

namespace {

/// spmv_multi's body for a compile-time lane count: the per-row
/// accumulators live in registers and the lane loops unroll, so the
/// 1-lane instance runs at the speed of the serial spmv.
template <std::size_t L>
void spmv_lanes(const Csr& a, std::span<const Real> x, std::size_t x_stride,
                std::span<Real> y, std::size_t y_stride, Real alpha,
                Real beta) {
  const auto cols = a.cols().raw();
  const auto vals = a.vals().raw();
  const LocalIndex n = a.nrows();
  for (LocalIndex i{0}; i < n; ++i) {
    std::array<Real, L> acc{};
    // One pass over the row's index structure feeds every lane; each
    // lane accumulates in the same entry order as the serial spmv.
    for (EntryOffset k = a.row_begin(i); k < a.row_end(i); ++k) {
      const Real v = vals[static_cast<std::size_t>(k)];
      const auto c = static_cast<std::size_t>(cols[static_cast<std::size_t>(k)]);
      for (std::size_t l = 0; l < L; ++l) {
        acc[l] += v * x[l * x_stride + c];
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      auto& yi = y[l * y_stride + static_cast<std::size_t>(i)];
      yi = beta == 0.0 ? alpha * acc[l] : beta * yi + alpha * acc[l];
    }
  }
}

using SpmvLanesFn = void (*)(const Csr&, std::span<const Real>, std::size_t,
                             std::span<Real>, std::size_t, Real, Real);
/// One instance per supported lane count; entry L - 1 handles L lanes.
constexpr std::array<SpmvLanesFn, Csr::kMaxLanes> kSpmvLanes{
    &spmv_lanes<1>, &spmv_lanes<2>, &spmv_lanes<3>, &spmv_lanes<4>,
    &spmv_lanes<5>, &spmv_lanes<6>, &spmv_lanes<7>, &spmv_lanes<8>};

}  // namespace

void Csr::spmv_multi(std::span<const Real> x, std::size_t x_stride,
                     std::span<Real> y, std::size_t y_stride,
                     std::size_t lanes, Real alpha, Real beta) const {
  EXW_REQUIRE(lanes >= 1 && lanes <= kMaxLanes,
              "spmv_multi lane count out of range");
  EXW_ASSERT(x_stride >= static_cast<std::size_t>(ncols_));
  EXW_ASSERT(y_stride >= static_cast<std::size_t>(nrows_));
  EXW_ASSERT(x.size() >= (lanes - 1) * x_stride +
                             static_cast<std::size_t>(ncols_));
  EXW_ASSERT(y.size() >= (lanes - 1) * y_stride +
                             static_cast<std::size_t>(nrows_));
  kSpmvLanes[lanes - 1](*this, x, x_stride, y, y_stride, alpha, beta);
}

void Csr::spmv_transpose(std::span<const Real> x, std::span<Real> y,
                         Real alpha, Real beta) const {
  EXW_ASSERT(x.size() >= static_cast<std::size_t>(nrows_));
  EXW_ASSERT(y.size() >= static_cast<std::size_t>(ncols_));
  if (beta == 0.0) {
    std::fill(y.begin(), y.begin() + ncols_.value(), 0.0);
  } else if (beta != 1.0) {
    for (LocalIndex j{0}; j < ncols_; ++j) {
      y[static_cast<std::size_t>(j)] *= beta;
    }
  }
  for (LocalIndex i{0}; i < nrows_; ++i) {
    const Real xi = alpha * x[static_cast<std::size_t>(i)];
    if (xi == 0.0) continue;
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      y[static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)] * xi;
    }
  }
}

std::vector<Real> Csr::diagonal() const {
  std::vector<Real> d(static_cast<std::size_t>(nrows_), 0.0);
  const LocalIndex bound{std::min(nrows_.value(), ncols_.value())};
  for (LocalIndex i{0}; i < bound; ++i) {
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      if (cols_[static_cast<std::size_t>(k)].value() == i.value()) {
        d[static_cast<std::size_t>(i)] = vals_[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
  return d;
}

Csr Csr::transpose() const {
  Csr out(ncols_, nrows_);
  out.cols_.resize(nnz());
  out.vals_.resize(nnz());
  // Counting sort by column.
  std::vector<EntryOffset> count(static_cast<std::size_t>(ncols_) + 1,
                                 EntryOffset{0});
  for (LocalIndex c : cols_) {
    count[static_cast<std::size_t>(c) + 1] += 1;
  }
  for (std::size_t i = 1; i < count.size(); ++i) {
    count[i] += count[i - 1];
  }
  out.row_ptr_ = count;
  std::vector<EntryOffset> cursor(count.begin(), count.end() - 1);
  for (LocalIndex i{0}; i < nrows_; ++i) {
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      const LocalIndex c = cols_[static_cast<std::size_t>(k)];
      const EntryOffset slot = cursor[static_cast<std::size_t>(c)]++;
      out.cols_[static_cast<std::size_t>(slot)] = i;
      out.vals_[static_cast<std::size_t>(slot)] =
          vals_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

Real Csr::at(LocalIndex i, LocalIndex j) const {
  for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
    if (cols_[static_cast<std::size_t>(k)] == j) {
      return vals_[static_cast<std::size_t>(k)];
    }
  }
  return 0.0;
}

Real Csr::max_abs() const {
  Real m = 0.0;
  for (Real v : vals_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

Real residual_inf_norm(const Csr& a, std::span<const Real> x,
                       std::span<const Real> b) {
  std::vector<Real> y(static_cast<std::size_t>(a.nrows()), 0.0);
  a.spmv(x, y);
  Real m = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    m = std::max(m, std::abs(y[i] - b[i]));
  }
  return m;
}

}  // namespace exw::sparse
