#include "sparse/spgemm.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "sparse/prim.hpp"

namespace exw::sparse {

namespace {

/// Open-addressing hash table for one output row: maps column -> slot.
/// Power-of-two capacity, linear probing, rebuilt (grown) on overflow.
class RowHash {
 public:
  void reset(std::size_t expected) {
    const std::size_t want = std::bit_ceil(std::max<std::size_t>(16, 2 * expected));
    if (want > keys_.size()) {
      keys_.assign(want, kEmpty);
      vals_.assign(want, 0.0);
    } else {
      std::fill(keys_.begin(), keys_.end(), kEmpty);
    }
    count_ = 0;
  }

  void insert(LocalIndex key, Real val) {
    if (2 * (count_ + 1) > keys_.size()) {
      grow();
    }
    std::size_t h = hash(key);
    while (true) {
      if (keys_[h] == kEmpty) {
        keys_[h] = key;
        vals_[h] = val;
        ++count_;
        return;
      }
      if (keys_[h] == key) {
        vals_[h] += val;
        return;
      }
      h = (h + 1) & (keys_.size() - 1);
    }
  }

  /// Emit (sorted by column) into the output arrays.
  void emit(std::vector<LocalIndex>& cols, std::vector<Real>& vals,
            std::vector<std::pair<LocalIndex, Real>>& scratch) const {
    scratch.clear();
    scratch.reserve(count_);  // capacity persists across rows via caller
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) {
        scratch.emplace_back(keys_[i], vals_[i]);
      }
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // The row's size is known now; grow the outputs once, geometrically,
    // so per-row appends never reallocate mid-row yet stay amortized
    // over the whole matrix.
    if (cols.capacity() - cols.size() < scratch.size()) {
      const std::size_t want =
          std::max(cols.size() + scratch.size(),
                   cols.capacity() + cols.capacity() / 2);
      cols.reserve(want);
      vals.reserve(want);
    }
    for (const auto& [c, v] : scratch) {
      cols.push_back(c);
      vals.push_back(v);
    }
  }

  std::size_t count() const { return count_; }

 private:
  static constexpr LocalIndex kEmpty{-1};

  std::size_t hash(LocalIndex key) const {
    return (static_cast<std::size_t>(key) * 0x9e3779b9u) & (keys_.size() - 1);
  }

  void grow() {
    std::vector<LocalIndex> old_keys = std::move(keys_);
    std::vector<Real> old_vals = std::move(vals_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.assign(old_vals.size() * 2, 0.0);
    count_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) {
        insert(old_keys[i], old_vals[i]);
      }
    }
  }

  std::vector<LocalIndex> keys_;
  std::vector<Real> vals_;
  std::size_t count_ = 0;
};

}  // namespace

Csr spgemm_hash(const Csr& a, const Csr& b) {
  EXW_REQUIRE(a.ncols() == b.nrows(), "spgemm shape mismatch");
  Csr out(a.nrows(), b.ncols());
  auto& rp = out.row_ptr_mut();
  auto& cols = out.cols_vec();
  auto& vals = out.vals_vec();
  RowHash table;
  std::vector<std::pair<LocalIndex, Real>> scratch;
  for (LocalIndex i{0}; i < a.nrows(); ++i) {
    // Upper bound on this row's products sizes the hash table.
    std::size_t upper = 0;
    for (EntryOffset ka = a.row_begin(i); ka < a.row_end(i); ++ka) {
      upper += static_cast<std::size_t>(
          b.row_nnz(a.cols()[ka]));
    }
    table.reset(upper);
    for (EntryOffset ka = a.row_begin(i); ka < a.row_end(i); ++ka) {
      const LocalIndex j = a.cols()[ka];
      const Real av = a.vals()[ka];
      if (av == 0.0) continue;
      for (EntryOffset kb = b.row_begin(j); kb < b.row_end(j); ++kb) {
        table.insert(b.cols()[kb],
                     av * b.vals()[kb]);
      }
    }
    table.emit(cols, vals, scratch);
    rp[static_cast<std::size_t>(i) + 1] = EntryOffset{cols.size()};
  }
  return out;
}

Csr spgemm_sort(const Csr& a, const Csr& b) {
  EXW_REQUIRE(a.ncols() == b.nrows(), "spgemm shape mismatch");
  // Expand every partial product into a triple...
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  const auto upper = static_cast<std::size_t>(spgemm_flops(a, b) / 2.0);
  ti.reserve(upper);
  tj.reserve(upper);
  tv.reserve(upper);
  for (LocalIndex i{0}; i < a.nrows(); ++i) {
    for (EntryOffset ka = a.row_begin(i); ka < a.row_end(i); ++ka) {
      const LocalIndex j = a.cols()[ka];
      const Real av = a.vals()[ka];
      for (EntryOffset kb = b.row_begin(j); kb < b.row_end(j); ++kb) {
        ti.push_back(i);
        tj.push_back(b.cols()[kb]);
        tv.push_back(av * b.vals()[kb]);
      }
    }
  }
  // ...then sort and compress, exactly like the assembly path.
  prim::stable_sort_by_key(ti, tj, tv);
  prim::reduce_by_key(ti, tj, tv);
  return Csr::from_triples(a.nrows(), b.ncols(), std::move(ti), std::move(tj),
                           std::move(tv));
}

Csr spgemm(const Csr& a, const Csr& b, SpGemmAlgo algo) {
  return algo == SpGemmAlgo::kHash ? spgemm_hash(a, b) : spgemm_sort(a, b);
}

Csr triple_product(const Csr& r, const Csr& a, const Csr& p, SpGemmAlgo algo) {
  return spgemm(r, spgemm(a, p, algo), algo);
}

Csr rap(const Csr& a, const Csr& p, SpGemmAlgo algo) {
  const Csr ap = spgemm(a, p, algo);
  const Csr rt = p.transpose();
  return spgemm(rt, ap, algo);
}

void ProductPlan::append(std::span<const std::size_t> ls,
                         std::span<const std::size_t> rs) {
  EXW_REQUIRE(ls.size() == rs.size() && !ls.empty(),
              "product-plan entry needs matching, non-empty term lists");
  if (seg_ptr.empty()) seg_ptr.push_back(0);
  lslot.insert(lslot.end(), ls.begin(), ls.end());
  rslot.insert(rslot.end(), rs.begin(), rs.end());
  seg_ptr.push_back(lslot.size());
}

void ProductPlan::replay(std::span<const Real> left,
                         std::span<const Real> right,
                         std::span<Real> out) const {
  EXW_REQUIRE(out.size() == outputs(), "product-plan output size mismatch");
  for (std::size_t e = 0; e + 1 < seg_ptr.size(); ++e) {
    std::size_t t = seg_ptr[e];
    Real acc = zero_init ? 0.0 : left[lslot[t]] * right[rslot[t]];
    if (!zero_init) ++t;
    for (; t < seg_ptr[e + 1]; ++t) {
      acc += left[lslot[t]] * right[rslot[t]];
    }
    out[e] = acc;
  }
}

double spgemm_flops(const Csr& a, const Csr& b) {
  double flops = 0;
  for (LocalIndex i{0}; i < a.nrows(); ++i) {
    for (EntryOffset k = a.row_begin(i); k < a.row_end(i); ++k) {
      flops += 2.0 * b.row_nnz(a.cols()[k]).value();
    }
  }
  return flops;
}

}  // namespace exw::sparse
