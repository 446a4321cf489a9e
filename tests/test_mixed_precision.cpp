// Mixed-precision preconditioning (DESIGN.md §16) and pipelined GMRES.
//
// Pins the contracts the perf story rests on:
//   * the demote boundary: round-trip exactness, overflow guard, FTZ of
//     subnormals, NaN/inf pass-through;
//   * the mixed V-cycle is bitwise deterministic, rank-count invariant
//     (1/2/4/8 simulated ranks) and thread-count invariant;
//   * a value refresh of a frozen FP32 hierarchy is bitwise-identical to
//     a cold rebuild (the FP64-chain / demote-at-end replay);
//   * the FP32 preconditioner costs at most one extra GMRES iteration on
//     the canonical elliptic operator;
//   * pipelined GMRES agrees with one-reduce to rounding per iteration,
//     removes the blocking collective from the iteration body, and its
//     fused multi-RHS lanes are bitwise-identical to scalar solves.
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
using testutil::random_spd_ish;
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
  EXPECT_THROW(f3.lane_fill(0, 1.0), Error);
  EXPECT_THROW(f3.lane_axpy(0, 1.0, x3), Error);
  EXPECT_THROW(x3.lane_axpy(0, 1.0, f3), Error);
  EXPECT_THROW(f3.set_lane(0, x1), Error);
  EXPECT_THROW(x3.set_lane(0, f1), Error);
  EXPECT_THROW(f3.extract_lane(0, x1), Error);
  EXPECT_THROW(x3.extract_lane(0, f1), Error);

  // The same calls on FP64 operands run.
  EXPECT_NO_THROW(y3.copy_lanes(x3));
  EXPECT_NO_THROW(y3.scale_lanes(alpha));
  EXPECT_NO_THROW(y3.lane_fill(0, 1.0));
  EXPECT_NO_THROW(y3.lane_axpy(0, 1.0, x3));
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

TEST(MixedVcycle, RefreshMatchesColdRebuildBitwise) {
  // The FP64-chain replay: refresh runs the whole Galerkin chain in FP64
  // and demotes every level once at the end, so a refreshed FP32
  // hierarchy must be bitwise-identical to one built cold from the same
  // values.
  const int nranks = 4;
  auto mat = laplace3d(7, 0.1);
  par::Runtime rt(nranks);
  const auto rows =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
  auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  amg::AmgConfig cfg;
  cfg.precision = Precision::kF32;
  amg::AmgHierarchy frozen(a, cfg, /*freeze_replay=*/true);

  // Refresh through genuinely different values and back (the round trip
  // keeps the frozen coarsening applicable), then compare against a cold
  // build from the same final values.
  const auto a_mid =
      linalg::ParCsr::from_serial(rt, laplace3d(7, 0.45), rows, rows);
  frozen.refresh_values(a_mid);
  frozen.refresh_values(a);
  amg::AmgHierarchy cold(a, cfg);

  // The refreshed coarse direct solver deliberately keeps its stale
  // factorization (drift policy owns that lag), so the pin is on the
  // value plane: every level's refreshed operator must act bitwise like
  // the cold rebuild's — the FP64-chain replay demoted at the end
  // reproduces the cold Galerkin chain exactly.
  ASSERT_EQ(frozen.num_levels(), cold.num_levels());
  for (int l = 0; l < frozen.num_levels(); ++l) {
    const auto& af = frozen.level(l).a;
    const auto& ac = cold.level(l).a;
    linalg::ParVector v(rt, af.cols()), yf(rt, af.rows()), yc(rt, af.rows());
    v.scatter(random_vector(static_cast<std::size_t>(af.global_cols().value()),
                            7 + static_cast<std::uint64_t>(l)));
    af.matvec(v, yf);
    ac.matvec(v, yc);
    const auto gf = yf.gather();
    const auto gc = yc.gather();
    EXPECT_EQ(std::memcmp(gf.data(), gc.data(), gf.size() * sizeof(Real)), 0)
        << "refreshed level " << l << " operator drifted from cold rebuild";
  }
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

// ------------------------------------------------------- pipelined GMRES --

TEST(Pipelined, AgreesWithOneReducePerIteration) {
  const auto mat = random_spd_ish(LocalIndex{300}, 6, 53);
  auto run = [&](solver::OrthoMethod ortho, std::vector<Real>* trace,
                 RealVector* sol) {
    par::Runtime rt(4);
    const auto rows =
        par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 4);
    const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
    linalg::ParVector b(rt, rows), x(rt, rows);
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 5));
    x.fill(0.0);
    solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 2, 2);
    solver::GmresOptions opts;
    opts.rel_tol = 1e-9;
    opts.ortho = ortho;
    opts.residual_trace = trace;
    const auto st = solver::gmres_solve(a, b, x, m, opts);
    EXPECT_TRUE(st.converged);
    *sol = x.gather();
    return st;
  };
  std::vector<Real> trace_one, trace_pipe;
  RealVector sol_one, sol_pipe;
  const auto s_one = run(solver::OrthoMethod::kOneReduce, &trace_one,
                         &sol_one);
  const auto s_pipe = run(solver::OrthoMethod::kPipelined, &trace_pipe,
                          &sol_pipe);
  // The q-basis recurrence reassociates A M^-1, so agreement is to
  // rounding, not bitwise: per-iteration residual estimates track within
  // a tight relative band and the solutions coincide to solver accuracy.
  ASSERT_FALSE(trace_one.empty());
  const std::size_t common = std::min(trace_one.size(), trace_pipe.size());
  EXPECT_LE(trace_one.size() > trace_pipe.size()
                ? trace_one.size() - trace_pipe.size()
                : trace_pipe.size() - trace_one.size(),
            std::size_t{1});
  for (std::size_t i = 0; i < common; ++i) {
    EXPECT_NEAR(trace_pipe[i], trace_one[i],
                1e-6 * s_one.initial_residual + 1e-6 * trace_one[i])
        << "residual traces diverged at iteration " << i;
  }
  Real diff = 0, norm = 0;
  for (std::size_t i = 0; i < sol_one.size(); ++i) {
    diff = std::max(diff, std::abs(sol_one[i] - sol_pipe[i]));
    norm = std::max(norm, std::abs(sol_one[i]));
  }
  EXPECT_LE(diff, 1e-7 * std::max(norm, Real{1.0}));
  EXPECT_LE(std::abs(s_pipe.iterations - s_one.iterations), 1);
}

TEST(Pipelined, RemovesBlockingCollectiveFromIterationBody) {
  const auto mat = laplace3d(8, 0.02);
  long blocking_one = 0, blocking_pipe = 0;
  long overlapped_one = 0, overlapped_pipe = 0;
  int iters_one = 0, iters_pipe = 0;
  auto run = [&](solver::OrthoMethod ortho, long* blocking, long* overlapped,
                 int* iters) {
    par::Runtime rt(4);
    const auto rows =
        par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 4);
    const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
    linalg::ParVector b(rt, rows), x(rt, rows);
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 13));
    x.fill(0.0);
    solver::IdentityPrecond m;
    solver::GmresOptions opts;
    opts.rel_tol = 1e-8;
    opts.ortho = ortho;
    rt.tracer().reset();
    const auto st = solver::gmres_solve(a, b, x, m, opts);
    EXPECT_TRUE(st.converged);
    *blocking = rt.tracer().phase("").collectives;
    *overlapped = rt.tracer().phase("").overlapped_collectives;
    *iters = st.iterations;
  };
  run(solver::OrthoMethod::kOneReduce, &blocking_one, &overlapped_one,
      &iters_one);
  run(solver::OrthoMethod::kPipelined, &blocking_pipe, &overlapped_pipe,
      &iters_pipe);
  ASSERT_GT(iters_one, 0);
  ASSERT_GT(iters_pipe, 0);
  // One-reduce: >= 1 blocking reduce per iteration; pipelined moves the
  // per-iteration reduce off the blocking ledger entirely.
  const double per_iter_one =
      static_cast<double>(blocking_one) / iters_one;
  const double per_iter_pipe =
      static_cast<double>(blocking_pipe) / iters_pipe;
  EXPECT_LT(per_iter_pipe, per_iter_one);
  EXPECT_EQ(overlapped_one, 0);
  // One in-flight reduce per iteration, except at the periodic
  // synchronization points where the reduce blocks by design.
  EXPECT_GE(overlapped_pipe,
            iters_pipe - iters_pipe / solver::kPipelineSyncPeriod - 1);
}

TEST(Pipelined, MultiLanesMatchScalarBitwise) {
  // The fused multi-RHS pipelined path must reproduce the scalar
  // pipelined iterates exactly, lane by lane (rank-ordered batched
  // reductions + masked lane ops).
  const auto mat = random_spd_ish(LocalIndex{240}, 5, 71);
  const int nranks = 4;
  constexpr std::size_t kLanes = 3;
  par::Runtime rt(nranks);
  const auto rows =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  solver::SmootherPrecond m(a, amg::SmootherType::kSgs2, 2, 1);
  solver::GmresOptions opts;
  opts.rel_tol = 1e-8;
  opts.ortho = solver::OrthoMethod::kPipelined;

  std::vector<RealVector> bd;
  for (std::size_t c = 0; c < kLanes; ++c) {
    bd.push_back(random_vector(static_cast<std::size_t>(mat.nrows()),
                               100 + c));
  }

  linalg::ParVector b(rt, rows, kLanes), x(rt, rows, kLanes);
  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector bc(rt, rows);
    bc.scatter(bd[c]);
    b.set_lane(c, bc);
  }
  x.fill(0.0);
  const auto multi = solver::gmres_solve_multi(a, b, x, m, opts);
  EXPECT_TRUE(multi.all_converged());

  for (std::size_t c = 0; c < kLanes; ++c) {
    linalg::ParVector bc(rt, rows), xc(rt, rows);
    bc.scatter(bd[c]);
    xc.fill(0.0);
    const auto st = solver::gmres_solve(a, bc, xc, m, opts);
    EXPECT_TRUE(st.converged);
    EXPECT_EQ(st.iterations, multi.lane[c].iterations) << "lane " << c;
    linalg::ParVector xm(rt, rows);
    x.extract_lane(c, xm);
    const auto gm = xm.gather();
    const auto gs = xc.gather();
    EXPECT_EQ(std::memcmp(gm.data(), gs.data(), gm.size() * sizeof(Real)),
              0)
        << "lane " << c << " diverged from scalar pipelined";
  }
}

}  // namespace
}  // namespace exw
