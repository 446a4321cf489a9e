#include "linalg/value_check.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "perf/purity.hpp"

namespace exw::linalg {

namespace {

/// Bit-pattern equality of a value run against stored values.
bool same_bits(std::span<const Real> vals, const Real* stored) {
  if (vals.empty()) {
    return true;
  }
  // Comparing object representations is the point here.
  // NOLINTNEXTLINE(bugprone-suspicious-memory-comparison)
  return std::memcmp(vals.data(), stored, vals.size_bytes()) == 0;
}

/// One streaming pass over n values: read the matrix and the copy once.
void charge_value_stream(par::Runtime& rt, RankId r, std::size_t n) {
  const auto dn = static_cast<double>(n);
  rt.tracer().kernel(r, dn, 2.0 * sizeof(Real) * dn);
}

}  // namespace

EXW_WARM_FN
bool ValueCheck::values_changed(const ParCsr& a, std::uint64_t key) {
  EXW_PURITY_REGION("amg-reuse-check");
  if (!valid_ || key_ != key ||
      values_.size() != static_cast<std::size_t>(a.nranks())) {
    // First use, or a new structure: nothing to compare against.
    EXW_PURITY_ALLOW("first-use scratch priming");
    store(a, key);
    return true;
  }
  par::Runtime& rt = a.runtime();
  rt.parallel_for_ranks([&](RankId r) {
    const auto ri = static_cast<std::size_t>(r);
    const RankBlock& blk = a.block(r);
    const RealVector& stored = values_[ri];
    const auto dspan = blk.diag.vals().raw();
    const auto ospan = blk.offd.vals().raw();
    const bool same = stored.size() == dspan.size() + ospan.size() &&
                      same_bits(dspan, stored.data()) &&
                      same_bits(ospan, stored.data() + dspan.size());
    changed_[ri] = same ? 0.0 : 1.0;
    charge_value_stream(rt, r, stored.size());
  });
  const bool changed = rt.allreduce_sum(changed_) > 0.0;
  if (changed) {
    store(a, key);
  }
  return changed;
}

void ValueCheck::store(const ParCsr& a, std::uint64_t key) {
  const auto nranks = static_cast<std::size_t>(a.nranks());
  {
    // No-ops unless the structure is new.
    EXW_PURITY_ALLOW("first-use scratch priming");
    values_.resize(nranks);   // exw-warm-ok: first-use scratch priming
    changed_.resize(nranks);  // exw-warm-ok: first-use scratch priming
    for (RankId r{0}; r.value() < a.nranks(); ++r) {
      const RankBlock& blk = a.block(r);
      RealVector& stored = values_[static_cast<std::size_t>(r)];
      stored.resize(  // exw-warm-ok: first-use scratch priming
          blk.diag.nnz() + blk.offd.nnz());
    }
  }
  par::Runtime& rt = a.runtime();
  rt.parallel_for_ranks([&](RankId r) {
    RealVector& stored = values_[static_cast<std::size_t>(r)];
    const RankBlock& blk = a.block(r);
    const auto dspan = blk.diag.vals().raw();
    const auto ospan = blk.offd.vals().raw();
    std::copy(dspan.begin(), dspan.end(), stored.begin());
    std::copy(ospan.begin(), ospan.end(),
              stored.begin() + static_cast<std::ptrdiff_t>(dspan.size()));
    charge_value_stream(rt, r, stored.size());
  });
  key_ = key;
  valid_ = true;
}

}  // namespace exw::linalg
