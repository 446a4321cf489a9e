#pragma once
/// \file csr.hpp
/// Compressed-sparse-row matrix and the core kernels built on it.
///
/// CSR is the solver-side format: SpMV ("the primary workhorse of Krylov
/// and AMG algorithms", paper §3.3) and transposition. Indices here are
/// rank-local; the distributed layer (linalg/ParCsr) pairs a local CSR
/// "diag" block with an "offd" block.
///
/// Index spaces: rows/columns are LocalIndex (32-bit), but positions in
/// the entry storage — row_ptr values and subscripts of cols()/vals() —
/// are 64-bit EntryOffset: a rank's nonzero *count* overflows 32 bits
/// long before its row count does. The accessors return IndexedSpan, so
/// subscripting entry storage with a row index (or vice versa) does not
/// compile.

#include <span>
#include <vector>

#include "common/types.hpp"

namespace exw::sparse {

class Csr {
 public:
  Csr() = default;
  Csr(LocalIndex nrows, LocalIndex ncols)
      : nrows_(nrows), ncols_(ncols),
        row_ptr_(static_cast<std::size_t>(nrows) + 1, EntryOffset{0}) {}

  /// Build from local-index triples (need not be sorted; duplicates summed).
  static Csr from_triples(LocalIndex nrows, LocalIndex ncols,
                          std::vector<LocalIndex> rows,
                          std::vector<LocalIndex> cols,
                          std::vector<Real> vals);

  /// Identity matrix.
  static Csr identity(LocalIndex n);

  LocalIndex nrows() const { return nrows_; }
  LocalIndex ncols() const { return ncols_; }
  std::size_t nnz() const { return cols_.size(); }

  IndexedSpan<LocalIndex, const EntryOffset> row_ptr() const {
    return {row_ptr_};
  }
  IndexedSpan<EntryOffset, const LocalIndex> cols() const { return {cols_}; }
  IndexedSpan<EntryOffset, const Real> vals() const { return {vals_}; }
  IndexedSpan<EntryOffset, Real> vals_mut() { return {vals_}; }

  EntryOffset row_begin(LocalIndex i) const {
    return row_ptr_[static_cast<std::size_t>(i)];
  }
  EntryOffset row_end(LocalIndex i) const {
    return row_ptr_[static_cast<std::size_t>(i) + 1];
  }
  /// Entries in row i. A single row is bounded by ncols, so this narrows
  /// back to LocalIndex through the audited gateway.
  LocalIndex row_nnz(LocalIndex i) const {
    return checked_narrow<LocalIndex>(row_end(i) - row_begin(i));
  }

  /// Direct access used by builders; row_ptr invariants are the caller's.
  std::vector<EntryOffset>& row_ptr_mut() { return row_ptr_; }
  std::vector<LocalIndex>& cols_vec() { return cols_; }
  std::vector<Real>& vals_vec() { return vals_; }

  /// y = alpha*A*x + beta*y — the serial reference the distributed and
  /// multi-lane kernels are tested against.
  void spmv(std::span<const Real> x, std::span<Real> y, Real alpha = 1.0,
            Real beta = 0.0) const;

  /// Largest lane count spmv_multi accepts.
  static constexpr std::size_t kMaxLanes = 8;

  /// Multi-lane SpMV, the kernel of every distributed SpMV: for lane c
  /// in [0, lanes), treat x[c*x_stride ..] and y[c*y_stride ..] as one
  /// vector pair and apply y_c = alpha*A*x_c + beta*y_c. Row structure
  /// (row_ptr/cols) is read once per row for all lanes; per-lane
  /// arithmetic (accumulation order, beta handling) is exactly spmv's,
  /// so each lane's result is bitwise-identical to an spmv call on that
  /// lane. The body is instantiated per lane count 1..kMaxLanes; other
  /// counts throw.
  void spmv_multi(std::span<const Real> x, std::size_t x_stride,
                  std::span<Real> y, std::size_t y_stride, std::size_t lanes,
                  Real alpha = 1.0, Real beta = 0.0) const;

  /// y += A^T * x (used for restriction when R = P^T).
  void spmv_transpose(std::span<const Real> x, std::span<Real> y,
                      Real alpha = 1.0, Real beta = 0.0) const;

  /// Main diagonal (0 where absent).
  std::vector<Real> diagonal() const;

  /// A^T as a new CSR (counting-sort by column; O(nnz)).
  Csr transpose() const;

  /// Value at (i, j) or 0; linear scan of row i.
  Real at(LocalIndex i, LocalIndex j) const;

 private:
  LocalIndex nrows_{0};
  LocalIndex ncols_{0};
  std::vector<EntryOffset> row_ptr_{EntryOffset{0}};
  std::vector<LocalIndex> cols_;
  std::vector<Real> vals_;
};

/// Dense |residual| check helper: y = A*x - b, returns max |y_i|.
Real residual_inf_norm(const Csr& a, std::span<const Real> x,
                       std::span<const Real> b);

}  // namespace exw::sparse
