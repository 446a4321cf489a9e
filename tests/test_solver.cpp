// Tests for GMRES (MGS and one-reduce) and the preconditioner stack.
#include <gtest/gtest.h>

#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace exw::solver {
namespace {

using testutil::laplace3d;
using testutil::random_spd_ish;
using testutil::random_vector;

struct Problem {
  par::Runtime rt;
  linalg::ParCsr a;
  linalg::ParVector b, x;

  Problem(int nranks, const sparse::Csr& mat)
      : rt(nranks),
        a(linalg::ParCsr::from_serial(
            rt, mat, par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks),
            par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks))),
        b(rt, a.rows()),
        x(rt, a.rows()) {
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 17));
    x.fill(0.0);
  }
};

class GmresSweep
    : public ::testing::TestWithParam<std::tuple<OrthoMethod, int>> {};

TEST_P(GmresSweep, SolvesSpdSystem) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, laplace3d(7, 0.2));
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-8;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  // True residual agrees.
  linalg::ParVector r(prob.rt, prob.a.rows());
  prob.a.residual(prob.b, prob.x, r);
  EXPECT_LT(r.norm2(), 1e-7 * stats.initial_residual);
}

TEST_P(GmresSweep, SolvesNonsymmetricSystem) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, random_spd_ish(LocalIndex{150}, 6, 23));  // nonsymmetric pattern
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-9;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
}

TEST_P(GmresSweep, RespectsInitialGuess) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, laplace3d(5, 0.3));
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-10;
  // Solve once, then re-solve starting from the solution: 0 iterations.
  gmres_solve(prob.a, prob.b, prob.x, m, opts);
  const auto again = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    OrthoAndRanks, GmresSweep,
    ::testing::Combine(::testing::Values(OrthoMethod::kMgs,
                                         OrthoMethod::kOneReduce,
                                         OrthoMethod::kPipelined),
                       ::testing::Values(1, 2, 5)));

TEST(Gmres, RestartStillConverges) {
  Problem prob(2, laplace3d(8, 0.05));
  IdentityPrecond m;
  GmresOptions opts;
  opts.restart = 5;  // force several restarts
  opts.max_iters = 400;
  opts.rel_tol = 1e-6;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 5);
}

TEST(Gmres, AmgPreconditionerCutsIterations) {
  const auto mat = laplace3d(10, 0.01);
  Problem plain(2, mat), preconditioned(2, mat);
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  IdentityPrecond id;
  const auto s0 = gmres_solve(plain.a, plain.b, plain.x, id, opts);
  AmgPrecond amg_m(preconditioned.a, amg::AmgConfig{});
  const auto s1 = gmres_solve(preconditioned.a, preconditioned.b,
                              preconditioned.x, amg_m, opts);
  EXPECT_TRUE(s1.converged);
  EXPECT_LT(s1.iterations, s0.iterations / 2);
}

TEST(Gmres, Sgs2PreconditionerConvergesFast) {
  // Paper §4.2: "two outer and two inner iterations often leads to rapid
  // convergence in less than five preconditioned GMRES iterations" for
  // the diagonally dominant momentum systems.
  Problem prob(3, random_spd_ish(LocalIndex{400}, 6, 29));
  SmootherPrecond m(prob.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-6;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 8);
}

TEST(Gmres, OneReduceUsesFewerCollectives) {
  // The point of the one-reduce variant: one allreduce per iteration vs
  // j+2 for MGS (paper §4.2 / [39]).
  const auto mat = laplace3d(8, 0.02);
  auto collectives_per_iter = [&](OrthoMethod ortho) {
    Problem prob(4, mat);
    IdentityPrecond m;
    GmresOptions opts;
    opts.ortho = ortho;
    opts.rel_tol = 1e-8;
    prob.rt.tracer().reset();
    const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
    EXPECT_TRUE(stats.converged);
    return static_cast<double>(prob.rt.tracer().phase("").collectives) /
           std::max(1, stats.iterations);
  };
  const double mgs = collectives_per_iter(OrthoMethod::kMgs);
  const double one = collectives_per_iter(OrthoMethod::kOneReduce);
  EXPECT_LT(one, 3.0);   // ~1 fused reduction + restart overheads
  EXPECT_GT(mgs, 2.0 * one);
}

TEST(Gmres, ExactPreconditionerConvergesInOneIteration) {
  // With M = A^-1 (via a fully converged inner AMG), right-preconditioned
  // GMRES needs a single iteration.
  const auto mat = laplace3d(6, 0.5);
  Problem prob(1, mat);
  class ExactPrecond final : public Preconditioner {
   public:
    explicit ExactPrecond(const sparse::Csr& m) : lu_(m) {}
    void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
      auto dense = r.gather();
      lu_.solve_in_place(dense);
      z.scatter(dense);
    }

   private:
    sparse::DenseLu lu_;
  } m(mat);
  GmresOptions opts;
  opts.rel_tol = 1e-10;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 2);
}

TEST(Gmres, ModeledLedgerIsPinned) {
  // Iterations and modeled ledger of three solves, recorded before the
  // 1-lane solves became the 1-lane case of the multi-lane GMRES. A copy
  // kernel (or any other charge) slipping into the 1-lane path moves
  // these counts.
  struct Ledger {
    long kernels, messages, collectives;
    double bytes, index_bytes;
  };
  const auto mat = laplace3d(6, 0.05);
  Problem prob(4, mat);
  const auto n = static_cast<std::size_t>(mat.nrows());
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  AmgPrecond amg_m(prob.a, amg::AmgConfig{});
  SmootherPrecond sgs2(prob.a, amg::SmootherType::kSgs2, 2, 2);
  const auto expect_ledger = [&](const Ledger& want) {
    const auto& ph = prob.rt.tracer().phase("");
    EXPECT_EQ(ph.total_kernels(), want.kernels);
    EXPECT_EQ(ph.messages, want.messages);
    EXPECT_EQ(ph.collectives, want.collectives);
    EXPECT_EQ(ph.total_bytes(), want.bytes);
    EXPECT_EQ(ph.total_index_bytes(), want.index_bytes);
  };

  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, amg_m, opts).iterations, 14);
  expect_ledger({2879, 732, 62, 4323336.0, 469608.0});

  prob.x.fill(0.0);
  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, sgs2, opts).iterations, 17);
  expect_ledger({3104, 336, 38, 5859648.0, 532224.0});

  linalg::ParVector b3(prob.rt, prob.a.rows(), 3), x3(prob.rt, prob.a.rows(), 3);
  for (std::size_t c = 0; c < 3; ++c) {
    auto d = random_vector(n, 31 + c);
    for (auto& v : d) v *= 1.0 + static_cast<double>(c);
    b3.scatter(d, c);
  }
  x3.fill(0.0);
  prob.rt.tracer().reset();
  const auto s3 = gmres_solve_multi(prob.a, b3, x3, sgs2, opts);
  ASSERT_EQ(s3.lane[0].iterations, 18);
  ASSERT_EQ(s3.lane[1].iterations, 18);
  ASSERT_EQ(s3.lane[2].iterations, 17);
  expect_ledger({3738, 390, 42, 17653248.0, 619200.0});
}

TEST(Gmres, ZeroRhsIsImmediatelyConverged) {
  Problem prob(2, laplace3d(4, 0.1));
  prob.b.fill(0.0);
  IdentityPrecond m;
  const auto stats = gmres_solve(prob.a, prob.b, prob.x, m, GmresOptions{});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
}

}  // namespace
}  // namespace exw::solver
