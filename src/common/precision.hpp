#pragma once
/// \file precision.hpp
/// The value-plane precision seam (DESIGN.md §16).
///
/// The simulated runtime computes everything in `Real` (double) host
/// arithmetic, but a container can be *tagged* FP32: its value arrays
/// then hold only FP32-representable doubles (every value has passed
/// through `demote_value`), every kernel charge prices its value stream
/// at 4 bytes/entry instead of 8, and halo payloads serialize as
/// `float`. This models what an FP32 preconditioner does to the memory
/// and network planes — the paper's §4 bandwidth wall — while keeping
/// the arithmetic bitwise deterministic and rank-count invariant:
/// loading a float and computing in double is exactly `double(float(v))`
/// on the stored value, which is what we store.
///
/// Numerical policy at the demote boundary (the OpenFOAM GPU
/// coupled-solver convention, Oliani et al., PAPERS.md):
///   * a finite double whose float conversion overflows to ±inf throws —
///     an FP32 preconditioner cannot represent that operator and the
///     caller must stay in FP64;
///   * results in the FP32 *subnormal* range flush to signed zero (FTZ),
///     matching GPU denormal-flush behavior so the model never banks on
///     precision real hardware drops;
///   * NaN/±inf inputs pass through unchanged — downstream guards own
///     those.

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/types.hpp"

namespace exw {

/// Storage precision of a value plane (indices are never demoted).
enum class Precision : std::uint8_t {
  kF64 = 0,  ///< full double storage (8 bytes/value)
  kF32 = 1,  ///< float storage (4 bytes/value), FP64 compute on load
};

/// Modeled bytes per stored value.
constexpr double bytes_of(Precision p) {
  return p == Precision::kF32 ? static_cast<double>(sizeof(float))
                              : static_cast<double>(sizeof(double));
}

/// Round one double through FP32 storage: the value a float load would
/// produce. Finite values that overflow float range throw; subnormal
/// results flush to signed zero; NaN/inf pass through.
inline Real demote_value(Real v) {
  if (!std::isfinite(v)) {
    return v;
  }
  const float f = static_cast<float>(v);
  if (std::isinf(f)) {
    throw Error("fp32 demotion overflow: |value| exceeds float range");
  }
  if (f != 0.0F && std::fabs(f) < std::numeric_limits<float>::min()) {
    return std::signbit(f) ? -0.0 : 0.0;  // FTZ: flush subnormals
  }
  return static_cast<Real>(f);
}

/// Store `v` under precision `p`: rounds through FP32 when the target
/// storage is tagged kF32, the identity otherwise. Every charged store
/// into a tagged container goes through this, which is what makes the
/// "FP32 storage, FP64 compute" model self-consistent: loads are exact
/// promotions, float serialization of stored values is lossless.
inline Real store_value(Real v, Precision p) {
  return p == Precision::kF32 ? demote_value(v) : v;
}

/// Label one value-stream charge under the per-precision ledger
/// (Tracer::kernel_split_prec): adds `bytes` to the f32 or f64
/// accumulator according to `p`.
inline void split_value_bytes(Precision p, double bytes, double& f64,
                              double& f32) {
  (p == Precision::kF32 ? f32 : f64) += bytes;
}

}  // namespace exw
