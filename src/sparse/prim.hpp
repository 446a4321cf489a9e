#pragma once
/// \file prim.hpp
/// Parallel-primitive library with the Thrust API shape.
///
/// The paper's global assembly (Algorithms 1 and 2) is expressed in terms
/// of `stable_sort_by_key` and `reduce_by_key`, and notes that "other GPU
/// architectures can be supported provided implementations exist for"
/// those two primitives. This header is that provider for the simulated
/// runtime: sequential implementations with identical semantics, so
/// assembly and AMG setup read like the paper's pseudocode.

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace exw::sparse::prim {

/// Permutation that stably sorts `keys` ascending under `less`.
template <typename K, typename Less>
std::vector<std::size_t> sort_permutation(const std::vector<K>& keys, Less less) {
  std::vector<std::size_t> p(keys.size());
  std::iota(p.begin(), p.end(), std::size_t{0});
  std::stable_sort(p.begin(), p.end(), [&](std::size_t a, std::size_t b) {
    return less(keys[a], keys[b]);
  });
  return p;
}

/// Apply a permutation out-of-place: out[i] = v[p[i]].
template <typename T>
std::vector<T> gather(const std::vector<T>& v, const std::vector<std::size_t>& p) {
  std::vector<T> out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out[i] = v[p[i]];
  }
  return out;
}

/// thrust::stable_sort_by_key over one key array and one value array.
template <typename K, typename V>
void stable_sort_by_key(std::vector<K>& keys, std::vector<V>& values) {
  EXW_REQUIRE(keys.size() == values.size(), "key/value length mismatch");
  const auto p = sort_permutation(keys, std::less<K>{});
  keys = gather(keys, p);
  values = gather(values, p);
}

/// Permutation that stably sorts composite (k1, k2) lexicographic keys
/// ascending — the structure half of the COO-triple stable_sort_by_key,
/// exposed separately so it can be computed once and replayed (the
/// assembly-plan cache freezes this permutation per sparsity pattern).
template <typename K1, typename K2>
std::vector<std::size_t> sort_permutation2(const std::vector<K1>& k1,
                                           const std::vector<K2>& k2) {
  EXW_REQUIRE(k1.size() == k2.size(), "key length mismatch");
  std::vector<std::size_t> p(k1.size());
  std::iota(p.begin(), p.end(), std::size_t{0});
  std::stable_sort(p.begin(), p.end(), [&](std::size_t a, std::size_t b) {
    if (k1[a] != k1[b]) return k1[a] < k1[b];
    return k2[a] < k2[b];
  });
  return p;
}

/// stable_sort_by_key with a composite (k1, k2) lexicographic key and one
/// value array — the shape used for COO (row, col, val) triples.
template <typename K1, typename K2, typename V>
void stable_sort_by_key(std::vector<K1>& k1, std::vector<K2>& k2,
                        std::vector<V>& values) {
  EXW_REQUIRE(k1.size() == values.size(), "key/value length mismatch");
  const auto p = sort_permutation2(k1, k2);
  k1 = gather(k1, p);
  k2 = gather(k2, p);
  values = gather(values, p);
}

/// Boundaries of the runs of equal keys encountered when traversing slots
/// through permutation `p`: run s spans p[seg_ptr[s] .. seg_ptr[s+1]).
/// `same(a, b)` compares two *unpermuted* slot indices. With `p` a stable
/// sort permutation this yields exactly reduce_by_key's segments.
template <typename Same>
std::vector<std::size_t> segment_pointers(const std::vector<std::size_t>& p,
                                          Same same) {
  std::vector<std::size_t> ptr;
  ptr.reserve(p.size() + 1);
  ptr.push_back(0);
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (!same(p[i - 1], p[i])) ptr.push_back(i);
  }
  if (!p.empty()) ptr.push_back(p.size());
  return ptr;
}

/// Permuted segmented sum: for segment s, accumulate values[perm[j]] for
/// j in [seg_ptr[s], seg_ptr[s+1]) in ascending j and call emit(s, acc).
/// Addend order equals reduce_by_key after the stable sort that produced
/// `perm`, so results are bitwise-identical to sort+reduce — the warm
/// half of the assembly-plan cache depends on this.
template <typename V, typename Emit>
void segmented_reduce(std::span<const V> values,
                      std::span<const std::size_t> perm,
                      std::span<const std::size_t> seg_ptr, Emit emit) {
  EXW_REQUIRE(values.size() == perm.size(),
              "segmented_reduce value/permutation length mismatch");
  for (std::size_t s = 0; s + 1 < seg_ptr.size(); ++s) {
    V acc = values[perm[seg_ptr[s]]];
    for (std::size_t j = seg_ptr[s] + 1; j < seg_ptr[s + 1]; ++j) {
      acc += values[perm[j]];
    }
    emit(s, acc);
  }
}

/// thrust::reduce_by_key with sum reduction: consecutive equal keys are
/// collapsed and their values summed. Returns the number of unique keys;
/// outputs are resized to that length.
template <typename K, typename V>
std::size_t reduce_by_key(std::vector<K>& keys, std::vector<V>& values) {
  EXW_REQUIRE(keys.size() == values.size(), "key/value length mismatch");
  std::size_t out = 0;
  for (std::size_t i = 0; i < keys.size();) {
    K k = keys[i];
    V acc = values[i];
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == k) {
      acc += values[j];
      ++j;
    }
    keys[out] = k;
    values[out] = acc;
    ++out;
    i = j;
  }
  keys.resize(out);
  values.resize(out);
  return out;
}

/// reduce_by_key over composite (k1, k2) keys — the COO duplicate-sum step
/// of the paper's Algorithm 1, line 6.
template <typename K1, typename K2, typename V>
std::size_t reduce_by_key(std::vector<K1>& k1, std::vector<K2>& k2,
                          std::vector<V>& values) {
  EXW_REQUIRE(k1.size() == k2.size() && k1.size() == values.size(),
              "key/value length mismatch");
  std::size_t out = 0;
  for (std::size_t i = 0; i < k1.size();) {
    const K1 a = k1[i];
    const K2 b = k2[i];
    V acc = values[i];
    std::size_t j = i + 1;
    while (j < k1.size() && k1[j] == a && k2[j] == b) {
      acc += values[j];
      ++j;
    }
    k1[out] = a;
    k2[out] = b;
    values[out] = acc;
    ++out;
    i = j;
  }
  k1.resize(out);
  k2.resize(out);
  values.resize(out);
  return out;
}

/// Exclusive prefix sum; returns the total.
template <typename T>
T exclusive_scan(std::vector<T>& v) {
  T sum{};
  for (auto& x : v) {
    const T next = sum + x;
    x = sum;
    sum = next;
  }
  return sum;
}

}  // namespace exw::sparse::prim
