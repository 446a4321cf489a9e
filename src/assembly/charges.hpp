#pragma once
/// \file charges.hpp
/// Cost-model charges shared by the stage-3 assembly paths (cold
/// Algorithm 1/2 in global.cpp, warm plan refills in plan.cpp). Kept in
/// one place so the bench/CI invariant "a warm refill charges streaming
/// passes only, never a sort" is auditable: plan.cpp must not include a
/// charge_sort call.

#include <cstddef>

#include "common/types.hpp"
#include "perf/tracer.hpp"

namespace exw::assembly::detail {

/// Bytes per COO triple / RHS pair moved by the assembly kernels.
inline constexpr double kTripleBytes = sizeof(GlobalIndex) * 2.0 + sizeof(Real);
inline constexpr double kPairBytes = sizeof(GlobalIndex) + sizeof(Real);

/// Charge a device stable_sort_by_key of n keys with `width` payload
/// bytes. Modeled after a radix sort on 2x64-bit keys: 8 digit passes,
/// each a counting kernel + scatter kernel over the full payload, i.e.
/// far from a single streaming pass (matching the measured cost of
/// device tuple sorts, which the paper's assembly time is dominated by).
inline void charge_sort(perf::Tracer& tracer, RankId r, std::size_t n,
                        double width) {
  const auto dn = static_cast<double>(n);
  for (std::size_t pass = 0; pass < 8; ++pass) {
    tracer.kernel(r, 2.0 * dn, 2.0 * width * dn);
  }
}

/// Charge one streaming pass over n items of `width` bytes.
inline void charge_stream(perf::Tracer& tracer, RankId r, std::size_t n,
                          double width) {
  const auto dn = static_cast<double>(n);
  tracer.kernel(r, 2.0 * dn, 2.0 * width * dn);
}

/// The same pass, added to a rank body's tally (perf::Tally), which the
/// body charges with its channel messages at once.
inline void tally_stream(perf::Tally& tally, std::size_t n, double width) {
  const auto dn = static_cast<double>(n);
  tally.kernel(2.0 * dn, 2.0 * width * dn);
}

}  // namespace exw::assembly::detail
