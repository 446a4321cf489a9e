#include "sparse/coo.hpp"

#include "sparse/prim.hpp"

namespace exw::sparse {

void Coo::append(const Coo& other) {
  rows.insert(rows.end(), other.rows.begin(), other.rows.end());
  cols.insert(cols.end(), other.cols.begin(), other.cols.end());
  vals.insert(vals.end(), other.vals.begin(), other.vals.end());
}

void Coo::sort() { prim::stable_sort_by_key(rows, cols, vals); }

void Coo::sum_duplicates() { prim::reduce_by_key(rows, cols, vals); }

void Coo::normalize() {
  sort();
  sum_duplicates();
}

void CooVector::append(const CooVector& other) {
  rows.insert(rows.end(), other.rows.begin(), other.rows.end());
  vals.insert(vals.end(), other.vals.begin(), other.vals.end());
}

void CooVector::sort() { prim::stable_sort_by_key(rows, vals); }

void CooVector::sum_duplicates() { prim::reduce_by_key(rows, vals); }

void CooVector::normalize() {
  sort();
  sum_duplicates();
}

}  // namespace exw::sparse
