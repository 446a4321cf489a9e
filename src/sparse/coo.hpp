#pragma once
/// \file coo.hpp
/// Coordinate-format sparse matrix/vector pieces used by the assembly path.
///
/// COO is the lingua franca of the paper's three-stage assembly (§3): the
/// graph computation emits (row, col) pairs, the local assembly fills the
/// value array in place, and the global assembly exchanges and merges COO
/// triples between ranks. Rows/cols are *global* indices.

#include <vector>

#include "common/types.hpp"

namespace exw::sparse {

/// A set of (row, col, val) triples with global indices.
struct Coo {
  std::vector<GlobalIndex> rows;
  std::vector<GlobalIndex> cols;
  std::vector<Real> vals;

  std::size_t nnz() const { return rows.size(); }

  void reserve(std::size_t n) {
    rows.reserve(n);
    cols.reserve(n);
    vals.reserve(n);
  }

  void push(GlobalIndex i, GlobalIndex j, Real v) {
    rows.push_back(i);
    cols.push_back(j);
    vals.push_back(v);
  }

  void clear() {
    rows.clear();
    cols.clear();
    vals.clear();
  }

  /// Append another COO set (the "stack" step of Algorithm 1, line 4).
  void append(const Coo& other);

  /// Stable row-major sort of the triples.
  void sort();

  /// Sum duplicate (row, col) entries; requires sorted triples.
  void sum_duplicates();

  /// sort() + sum_duplicates().
  void normalize();
};

/// Sparse RHS contributions: (row, value) pairs with global rows.
struct CooVector {
  std::vector<GlobalIndex> rows;
  std::vector<Real> vals;

  std::size_t size() const { return rows.size(); }

  void push(GlobalIndex i, Real v) {
    rows.push_back(i);
    vals.push_back(v);
  }

  void clear() {
    rows.clear();
    vals.clear();
  }

  void append(const CooVector& other);
  void sort();
  void sum_duplicates();
  void normalize();
};

}  // namespace exw::sparse
