// Mixed-precision preconditioning (DESIGN.md §16).
//
// Pins the contracts the perf story rests on:
//   * the demote boundary: round-trip exactness, overflow guard, FTZ of
//     subnormals, NaN/inf pass-through;
//   * the mixed V-cycle is bitwise deterministic, rank-count invariant
//     (1/2/4/8 simulated ranks) and thread-count invariant;
//   * the FP32 preconditioner costs at most one extra GMRES iteration on
//     the canonical elliptic operator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "amg/hierarchy.hpp"
#include "common/precision.hpp"
#include "par/thread_pool.hpp"
#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace exw {
namespace {

using testutil::laplace3d;
using testutil::random_vector;

// ---------------------------------------------------------------- demote --

TEST(Precision, StoreValueRoundsThroughFp32Storage) {
  const Real v = 0.1;  // not FP32-representable
  const Real s = store_value(v, Precision::kF32);
  EXPECT_NE(s, v);
  EXPECT_EQ(s, static_cast<Real>(static_cast<float>(v)));
  // Idempotent: a stored value re-stores to itself (load = exact promote).
  EXPECT_EQ(store_value(s, Precision::kF32), s);
  // FP64 storage is the identity.
  EXPECT_EQ(store_value(v, Precision::kF64), v);
}

TEST(Precision, DemoteOverflowThrows) {
  EXPECT_THROW(demote_value(1e39), Error);
  EXPECT_THROW(demote_value(-1e39), Error);
  EXPECT_NO_THROW(demote_value(3e38));  // still inside float range
}

TEST(Precision, SubnormalsFlushToSignedZero) {
  const Real pos = demote_value(1e-40);
  const Real neg = demote_value(-1e-40);
  EXPECT_EQ(pos, 0.0);
  EXPECT_FALSE(std::signbit(pos));
  EXPECT_EQ(neg, 0.0);
  EXPECT_TRUE(std::signbit(neg));
}

TEST(Precision, NanAndInfPassThrough) {
  EXPECT_TRUE(std::isnan(demote_value(std::nan(""))));
  const Real inf = std::numeric_limits<Real>::infinity();
  EXPECT_EQ(demote_value(inf), inf);
  EXPECT_EQ(demote_value(-inf), -inf);
}

TEST(Precision, BytesOfAndSplit) {
  EXPECT_EQ(bytes_of(Precision::kF64), 8.0);
  EXPECT_EQ(bytes_of(Precision::kF32), 4.0);
  double f64 = 0, f32 = 0;
  split_value_bytes(Precision::kF32, 100.0, f64, f32);
  split_value_bytes(Precision::kF64, 40.0, f64, f32);
  EXPECT_EQ(f32, 100.0);
  EXPECT_EQ(f64, 40.0);
}

TEST(Precision, KrylovLaneOpsRejectFp32Operands) {
  // FP32 storage lives only inside the preconditioners; the lane ops of
  // the FP64 Krylov side throw rather than round an FP32 operand.
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{10}, 2);
  linalg::ParVector x3(rt, rows, 3), y3(rt, rows, 3), x1(rt, rows);
  linalg::ParVector f3(rt, rows, 3, Precision::kF32);
  linalg::ParVector f1(rt, rows, 1, Precision::kF32);
  EXPECT_EQ(f3.value_precision(), Precision::kF32);
  // The first rank dispatch starts the thread pool; do it outside the
  // warm regions the FP64 calls below open (fatal purity mode).
  x3.fill(1.0);
  const std::vector<Real> alpha{1.0, 2.0, 3.0};

  EXPECT_THROW(f3.copy_lanes(x3), Error);
  EXPECT_THROW(x3.copy_lanes(f3), Error);
  EXPECT_THROW(f3.scale_lanes(alpha), Error);
  EXPECT_THROW(f3.lane_fill(RankId{0}, 0, 1.0), Error);
  EXPECT_THROW(f3.set_lane(0, x1), Error);
  EXPECT_THROW(x3.set_lane(0, f1), Error);
  EXPECT_THROW(f3.extract_lane(0, x1), Error);
  EXPECT_THROW(x3.extract_lane(0, f1), Error);

  // The same calls on FP64 operands run.
  EXPECT_NO_THROW(y3.copy_lanes(x3));
  EXPECT_NO_THROW(y3.scale_lanes(alpha));
  EXPECT_NO_THROW(y3.lane_fill(RankId{0}, 0, 1.0));
  EXPECT_NO_THROW(y3.set_lane(0, x1));
  EXPECT_NO_THROW(y3.extract_lane(0, x1));
}

// ---------------------------------------------------------- mixed V-cycle --

/// One mixed-precision V-cycle on the canonical operator, gathered dense.
RealVector mixed_vcycle_result(int nranks, const sparse::Csr& mat) {
  par::Runtime rt(nranks);
  const auto rows =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  amg::AmgConfig cfg;
  cfg.precision = Precision::kF32;
  amg::AmgHierarchy h(a, cfg);
  linalg::ParVector b(rt, rows), x(rt, rows);
  b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 91));
  x.fill(0.0);
  h.vcycle(b, x);
  return x.gather();
}

TEST(MixedVcycle, BitwiseDeterministicAcrossRankCounts) {
  // Determinism is pinned AT each rank count (the l1/two-stage smoother
  // splits are partition-aware, so different rank counts legitimately
  // produce different — each bitwise-reproducible — iterates; the
  // rank-count invariance of the full solve is pinned at the sim level
  // by test_integration).
  const auto mat = laplace3d(8, 0.05);
  for (int nranks : {1, 2, 4, 8}) {
    const auto got = mixed_vcycle_result(nranks, mat);
    const auto again = mixed_vcycle_result(nranks, mat);
    ASSERT_EQ(got.size(), again.size());
    EXPECT_EQ(
        std::memcmp(got.data(), again.data(), got.size() * sizeof(Real)), 0)
        << "mixed V-cycle not deterministic at " << nranks << " ranks";
  }
}

TEST(MixedVcycle, ThreadCountInvariant) {
  // The process-wide pool is sized once, so the inline executor stands in
  // for a different thread count: one thread against the pool.
  const auto mat = laplace3d(7, 0.05);
  const bool saved = par::serial_mode();
  par::set_serial_mode(true);
  const auto ref = mixed_vcycle_result(4, mat);
  par::set_serial_mode(false);
  const auto got = mixed_vcycle_result(4, mat);
  par::set_serial_mode(saved);
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(Real)), 0)
      << "mixed V-cycle differs between the inline executor and "
      << par::ThreadPool::instance().num_threads() << " pool threads";
}

TEST(MixedPrecond, AtMostOneExtraGmresIteration) {
  const auto mat = laplace3d(9, 0.02);
  auto iters = [&](Precision p) {
    par::Runtime rt(4);
    const auto rows =
        par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 4);
    const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
    linalg::ParVector b(rt, rows), x(rt, rows);
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 31));
    x.fill(0.0);
    amg::AmgConfig cfg;
    cfg.precision = p;
    solver::AmgPrecond m(a, cfg);
    solver::GmresOptions opts;
    // The paper's pressure solves run at 1e-5; 1e-6 keeps headroom while
    // staying in the regime where an FP32 preconditioner is iteration-
    // neutral (at much tighter tolerances it legitimately costs more).
    opts.rel_tol = 1e-6;
    const auto st = solver::gmres_solve(a, b, x, m, opts);
    EXPECT_TRUE(st.converged);
    return st.iterations;
  };
  const int full = iters(Precision::kF64);
  const int mixed = iters(Precision::kF32);
  EXPECT_LE(mixed, full + 1);
}

}  // namespace
}  // namespace exw
