// Tests for GMRES (MGS and one-reduce), the preconditioner stack and the
// projection of initial guesses onto earlier corrections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "cfd/config.hpp"
#include "linalg/value_check.hpp"
#include "par/thread_pool.hpp"
#include "solver/gmres.hpp"
#include "solver/projection.hpp"
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
                                         OrthoMethod::kOneReduce),
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

TEST(Gmres, IterationRunsNineRegionsWithSgs2) {
  // One one-reduce GMRES iteration with the SGS2 preconditioner (two
  // outer sweeps, FP64): the first sweep from the zero guess with the
  // pack for the second in one body, the second sweep, the SpMV as a pack
  // plus one body, the fused dots, the Gram-Schmidt update of every basis
  // vector in one region, the reorthogonalization's fused dots and its
  // update in one region (SGS2 brings A M^-1 close enough to the identity
  // that it runs every iteration here), and the copy + scale (+ scrub) of
  // the next basis vector: 2 + 2 + 1 + 1 + 2 + 1 regions, whatever the
  // iteration index and lane count. Solves cut off after k and k + 1
  // iterations differ by exactly that.
  Problem p(4, laplace3d(6, 0.1));
  SmootherPrecond m(p.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-300;
  const auto& pool = par::ThreadPool::instance();
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    linalg::ParVector b(p.rt, p.a.rows(), lanes), x(p.rt, p.a.rows(), lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      b.scatter(random_vector(216, 70 + c), c);
    }
    std::vector<std::uint64_t> regions;
    for (int k = 1; k <= 5; ++k) {
      opts.max_iters = k;
      x.fill(0.0);
      const std::uint64_t before = pool.regions();
      (void)gmres_solve_multi(p.a, b, x, m, opts);
      regions.push_back(pool.regions() - before);
    }
    for (std::size_t k = 1; k < regions.size(); ++k) {
      EXPECT_EQ(regions[k] - regions[k - 1], 9u) << "iteration " << k + 1;
    }
  }
}

/// Counts the applications of the preconditioner it wraps, and records
/// the messages and collectives charged to the root phase before the
/// first one.
class CountingPrecond final : public Preconditioner {
 public:
  CountingPrecond(Preconditioner& inner, const perf::Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}
  void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
    if (applications == 0) {
      messages_before_first = tracer_->phase("").messages;
      collectives_before_first = tracer_->phase("").collectives;
    }
    ++applications;
    inner_->apply(r, z);
  }

  int applications = 0;
  long messages_before_first = -1;
  long collectives_before_first = -1;

 private:
  Preconditioner* inner_;
  const perf::Tracer* tracer_;
};

/// 1-lane and 3-lane right-hand sides of the 6^3 Laplacian on 4 ranks.
linalg::ParVector lanes_rhs(Problem& p, std::size_t lanes,
                            std::uint64_t seed) {
  linalg::ParVector b(p.rt, p.a.rows(), lanes);
  for (std::size_t c = 0; c < lanes; ++c) {
    b.scatter(random_vector(216, seed + c), c);
  }
  return b;
}

TEST(Gmres, NoPreconditionerApplicationAfterLastIteration) {
  // Each iteration keeps z_j = M^-1 v_j and every lane finishes with
  // x += Z y, so M runs once per shared iteration and never after the
  // last: 18 applications for the 1-lane solve of 18 iterations and for
  // the 3-lane one (lanes of 18, 18 and 17). A finish that applied M to
  // V y ran one more per finishing lane (19 and 21).
  Problem p(4, laplace3d(6, 0.05));
  SmootherPrecond sgs2(p.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    const linalg::ParVector b = lanes_rhs(p, lanes, 31);
    linalg::ParVector x(p.rt, p.a.rows(), lanes);
    CountingPrecond m(sgs2, p.rt.tracer());
    const auto stats = gmres_solve_multi(p.a, b, x, m, opts);
    int shared = 0;
    for (const auto& lane : stats.lane) {
      ASSERT_TRUE(lane.converged);
      ASSERT_LT(lane.iterations, opts.restart);
      shared = std::max(shared, lane.iterations);
    }
    EXPECT_GT(shared, 0);
    EXPECT_EQ(m.applications, shared);
  }
}

TEST(Gmres, EntryRunsOneResidualAndOneReduction) {
  // Before its first iteration a solve computes r0 = b - A x once and
  // reduces ||b|| and ||r0|| in one batched allreduce, which the first
  // shared start reuses: one halo exchange and one collective are charged
  // before the first preconditioner application (and so before the first
  // fused dots). Running the residual and both norms again at the first
  // start charged two exchanges and three collectives.
  Problem p(4, laplace3d(6, 0.05));
  SmootherPrecond sgs2(p.a, amg::SmootherType::kSgs2, 2, 2);
  auto& tracer = p.rt.tracer();
  tracer.reset();
  linalg::ParVector r(p.rt, p.a.rows());
  p.a.residual(p.b, p.x, r);
  const long exchange = tracer.phase("").messages;
  ASSERT_GT(exchange, 0);
  GmresOptions opts;
  opts.max_iters = 1;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    const linalg::ParVector b = lanes_rhs(p, lanes, 90);
    linalg::ParVector x(p.rt, p.a.rows(), lanes);
    CountingPrecond m(sgs2, tracer);
    tracer.reset();
    const auto stats = gmres_solve_multi(p.a, b, x, m, opts);
    EXPECT_EQ(stats.lane.front().iterations, 1);
    EXPECT_EQ(m.messages_before_first, exchange);
    EXPECT_EQ(m.collectives_before_first, 1);
  }
}

/// SGS2 with 1 and with 2 inner sweeps, in turn: a preconditioner that
/// changes from one application to the next.
class AlternatingSgs2 final : public Preconditioner {
 public:
  explicit AlternatingSgs2(const linalg::ParCsr& a)
      : one_(a, amg::SmootherType::kSgs2, 2, 1),
        two_(a, amg::SmootherType::kSgs2, 2, 2) {}
  void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
    (next_two_ ? two_ : one_).apply(r, z);
    next_two_ = !next_two_;
  }

 private:
  SmootherPrecond one_, two_;
  bool next_two_ = false;
};

TEST(Gmres, FlexibleFinishMatchesGivensEstimate) {
  // x += Z y with the z_j the iterations computed satisfies
  // A Z = V H exactly in exact arithmetic, whatever M did at each step,
  // so the confirmed true residual equals the last Givens estimate to
  // rounding, and no confirmation fails (only the last estimate is at or
  // below the target). A finish that applied the next M to V y instead
  // failed the confirmation three times in each of these six solves,
  // restarting each time (23-24 iterations against 9), and the residual
  // it finally confirmed differed from the estimate by up to 56 %.
  Problem p(4, random_spd_ish(LocalIndex{400}, 6, 29));
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  std::vector<Real> trace;
  opts.residual_trace = &trace;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    p.b.scatter(random_vector(400, seed));
    p.x.fill(0.0);
    AlternatingSgs2 m(p.a);
    const auto st = gmres_solve(p.a, p.b, p.x, m, opts);
    ASSERT_TRUE(st.converged);
    ASSERT_FALSE(trace.empty());
    const Real target = opts.rel_tol * p.b.norm2();
    EXPECT_EQ(std::count_if(trace.begin(), trace.end(),
                            [&](Real e) { return e <= target; }),
              1);
    EXPECT_LE(trace.back(), target);
    EXPECT_NEAR(st.final_residual, trace.back(),
                1e-10 * st.initial_residual);
  }
}

TEST(Gmres, ConfirmedLaneOfThreeRunsTwoFewerRegions) {
  // Each lane of this 3-lane SGS2 solve converges in one restart cycle
  // (lanes 0 and 1 after 18 iterations, lane 2 after 17) and confirms
  // once against a true residual. When each lane finished through 1-lane
  // scratch (x_c += M^-1 V y), the body that added a lane's correction
  // came to copy out its lane of b and pack x for that residual, so each
  // confirmed lane ran 2 fewer regions than the kRegionsBefore of the
  // solve before that. Finishing from the kept z_j cuts more: the entry
  // runs 3 regions instead of 7 (one residual and one batched reduction
  // of ||b|| and ||r0||, which the first start reuses), and each step at
  // which lanes leave runs 3 (x += Z y with the pack of x, the
  // confirmation residual, one batched norm) where each lane ran 7 (the
  // combination of the v_j, the copy out, two SGS2 sweeps, the add with
  // its pack, the residual and the norm).
  constexpr std::uint64_t kRegionsBefore = 197;
  constexpr std::uint64_t kScratchFinish = kRegionsBefore - 2 * 3;
  Problem p(4, laplace3d(6, 0.05));
  SmootherPrecond m(p.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  linalg::ParVector b(p.rt, p.a.rows(), 3), x(p.rt, p.a.rows(), 3);
  for (std::size_t c = 0; c < 3; ++c) {
    b.scatter(random_vector(216, 31 + c), c);
  }
  x.fill(0.0);
  const auto& pool = par::ThreadPool::instance();
  const std::uint64_t before = pool.regions();
  const auto stats = gmres_solve_multi(p.a, b, x, m, opts);
  const std::uint64_t regions = pool.regions() - before;
  for (const auto& lane : stats.lane) {
    ASSERT_TRUE(lane.converged);
  }
  ASSERT_EQ(stats.lane[0].iterations, 18);
  ASSERT_EQ(stats.lane[1].iterations, 18);
  ASSERT_EQ(stats.lane[2].iterations, 17);
  EXPECT_EQ(regions, kScratchFinish - (7 - 3) - 3 * 7 + 2 * 3)
      << regions << " regions";
}

TEST(Gmres, ModeledLedgerIsPinned) {
  // Iterations and modeled ledger of six solves. The iterations were
  // recorded before the 1-lane solves became the 1-lane case of the
  // multi-lane GMRES; the ledger was re-recorded when lanes started
  // finishing from the kept z_j = M^-1 v_j (no preconditioner
  // application after the last iteration, one entry residual and one
  // batched reduction of ||b|| and ||r0||). A copy kernel (or any other
  // charge) slipping into the 1-lane path moves these counts.
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
  expect_ledger({2438, 600, 58, 3724928.0, 366416.0});

  prob.x.fill(0.0);
  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, sgs2, opts).iterations, 17);
  expect_ledger({2696, 216, 36, 5157504.0, 415104.0});

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
  expect_ledger({3014, 234, 39, 15681600.0, 444096.0});

  // Two more AMG paths: the baseline pressure configuration (direct
  // interpolation, no aggressive coarsening, no Pmax cap) and an FP32
  // hierarchy. Iterations recorded while the V-cycle's smoother, sweep
  // counts and truncation threshold were still AmgConfig fields, except
  // the FP32 solve's: it took 16 while x was finished with one more
  // rounded V-cycle (x += M^-1 V y), whose true residual failed the
  // confirmation after 14 iterations and restarted the cycle.
  AmgPrecond amg_base(prob.a, cfd::SimConfig::baseline().pressure_amg);
  prob.x.fill(0.0);
  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, amg_base, opts).iterations, 12);
  expect_ledger({2840, 828, 50, 3672576.0, 418272.0});

  amg::AmgConfig f32_cfg;
  f32_cfg.precision = Precision::kF32;
  AmgPrecond amg_f32(prob.a, f32_cfg);
  prob.x.fill(0.0);
  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, amg_f32, opts).iterations, 14);
  expect_ledger({2494, 600, 58, 3114080.0, 366416.0});

  // Coarse-level agglomeration on: level 1's rows sit on fewer ranks, so
  // the restriction and prolongation messages and the coarse kernels
  // move. Iterations recorded when agglomeration was added.
  amg::AmgConfig agg_cfg;
  agg_cfg.min_coarse_rows_per_rank = 16;
  AmgPrecond amg_agg(prob.a, agg_cfg);
  const auto& coarse = amg_agg.hierarchy().level(1).a.rows();
  EXPECT_EQ(coarse.local_size(RankId{1}), LocalIndex{0});
  prob.x.fill(0.0);
  prob.rt.tracer().reset();
  ASSERT_EQ(gmres_solve(prob.a, prob.b, prob.x, amg_agg, opts).iterations, 14);
  expect_ledger({2186, 348, 58, 3726048.0, 366416.0});
}

/// `m` with every 7th row replaced by a Dirichlet identity row; the
/// columns keep their couplings, so the matrix is nonsymmetric like the
/// pressure matrix.
sparse::Csr with_identity_rows(const sparse::Csr& m) {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  for (LocalIndex i{0}; i < m.nrows(); ++i) {
    if (i.value() % 7 == 0) {
      ti.push_back(i);
      tj.push_back(i);
      tv.push_back(1.0);
      continue;
    }
    for (EntryOffset k = m.row_begin(i); k < m.row_end(i); ++k) {
      ti.push_back(i);
      tj.push_back(m.cols()[k]);
      tv.push_back(m.vals()[k]);
    }
  }
  return sparse::Csr::from_triples(m.nrows(), m.ncols(), std::move(ti),
                                   std::move(tj), std::move(tv));
}

/// One projected solve of A x = b from x = 0, as the pressure equation
/// runs it: project, GMRES, absorb.
SolveStats projected_solve(GuessProjector& proj, const linalg::ParCsr& a,
                           const linalg::ParVector& b, linalg::ParVector& x,
                           Preconditioner& m, bool matrix_changed = false) {
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  x.fill(0.0);
  proj.project(a, b, x, matrix_changed);
  const SolveStats st = gmres_solve(a, b, x, m, opts);
  proj.absorb(a, x, st);
  return st;
}

TEST(Projection, SecondSolveOfSameRhsTakesNoIterations) {
  for (const bool dirichlet : {false, true}) {
    SCOPED_TRACE(dirichlet ? "Dirichlet identity rows" : "laplace3d");
    const auto lap = laplace3d(6, 0.05);
    Problem prob(4, dirichlet ? with_identity_rows(lap) : lap);
    AmgPrecond m(prob.a, amg::AmgConfig{});
    GuessProjector proj(4);
    const SolveStats first = projected_solve(proj, prob.a, prob.b, prob.x, m);
    ASSERT_TRUE(first.converged);
    EXPECT_GT(first.iterations, 0);
    ASSERT_EQ(proj.size(), 1U);
    const SolveStats again = projected_solve(proj, prob.a, prob.b, prob.x, m);
    EXPECT_TRUE(again.converged);
    EXPECT_EQ(again.iterations, 0);
    EXPECT_EQ(proj.size(), 1U);  // no correction to absorb
  }
}

/// Copy of `a` with the first diag value of one rank replaced.
linalg::ParCsr with_diag_value(const linalg::ParCsr& a, RankId r,
                               Real value) {
  linalg::ParCsr c = a;
  c.block_mut(r).diag.vals_vec().front() = value;
  return c;
}

TEST(Projection, OneUlpOnOneRankFlushesBasisIdenticalValuesKeepIt) {
  Problem prob(4, laplace3d(6, 0.05));
  const linalg::ParCsr same = prob.a;
  const Real d = prob.a.block(RankId{2}).diag.vals().raw().front();
  const auto ulp = with_diag_value(prob.a, RankId{2}, std::nextafter(d, 2 * d));
  IdentityPrecond m;
  linalg::ValueCheck check;
  GuessProjector proj(4);
  projected_solve(proj, prob.a, prob.b, prob.x, m,
                  check.values_changed(prob.a, 1));
  ASSERT_EQ(proj.size(), 1U);

  prob.x.fill(0.0);
  proj.project(same, prob.b, prob.x, check.values_changed(same, 1));
  EXPECT_EQ(proj.size(), 1U);
  EXPECT_GT(prob.x.norm2(), 0.0);  // projected

  prob.x.fill(0.0);
  proj.project(ulp, prob.b, prob.x, check.values_changed(ulp, 1));
  EXPECT_EQ(proj.size(), 0U);
  EXPECT_EQ(prob.x.norm2(), 0.0);  // flushed before projecting
}

TEST(Projection, FullBasisRestartsAtSizeOne) {
  constexpr std::size_t kSize = 3;
  Problem prob(2, laplace3d(5, 0.1));
  IdentityPrecond m;
  GuessProjector proj(kSize);
  for (std::size_t k = 1; k <= kSize + 2; ++k) {
    prob.b.scatter(random_vector(125, 100 + k));
    ASSERT_TRUE(projected_solve(proj, prob.a, prob.b, prob.x, m).converged);
    EXPECT_EQ(proj.size(), k <= kSize ? k : k - kSize) << "absorb " << k;
    if (k == kSize) {
      // A repeated right-hand side needs no iteration, and its empty
      // correction leaves the full basis alone.
      EXPECT_EQ(projected_solve(proj, prob.a, prob.b, prob.x, m).iterations,
                0);
      EXPECT_EQ(proj.size(), kSize);
    }
  }
}

TEST(Projection, FailedOrNonFiniteSolveFlushesBasis) {
  Problem prob(3, laplace3d(5, 0.1));
  IdentityPrecond m;
  GuessProjector proj(4);
  const auto fill_basis = [&] {
    for (std::uint64_t seed : {201, 202}) {
      prob.b.scatter(random_vector(125, seed));
      ASSERT_TRUE(projected_solve(proj, prob.a, prob.b, prob.x, m).converged);
    }
    ASSERT_EQ(proj.size(), 2U);
  };

  fill_basis();
  prob.x.fill(0.0);
  proj.project(prob.a, prob.b, prob.x, false);
  SolveStats failed;
  failed.converged = false;
  proj.absorb(prob.a, prob.x, failed);
  EXPECT_EQ(proj.size(), 0U);
  prob.x.fill(0.0);
  proj.project(prob.a, prob.b, prob.x, false);
  EXPECT_EQ(prob.x.norm2(), 0.0);  // the next solve starts unprojected

  fill_basis();
  prob.x.fill(0.0);
  proj.project(prob.a, prob.b, prob.x, false);
  prob.x.at(0, GlobalIndex{17}) = std::numeric_limits<Real>::quiet_NaN();
  SolveStats nan_solve;
  nan_solve.iterations = 1;
  nan_solve.converged = true;
  proj.absorb(prob.a, prob.x, nan_solve);
  EXPECT_EQ(proj.size(), 0U);
}

TEST(Projection, ModeledLedgerIsPinned) {
  // One project and one absorb against a 2-direction basis of a 4-slot
  // projector: the residual, the batched dots and the combination; then
  // the SpMV, two orthogonalization passes and the A-norm. Any charge
  // added to or dropped from either moves these counts.
  const auto mat = laplace3d(6, 0.05);
  Problem prob(4, mat);
  AmgPrecond m(prob.a, amg::AmgConfig{});
  GuessProjector proj(4);
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  for (std::uint64_t seed : {301, 302, 303}) {
    prob.b.scatter(random_vector(216, seed));
    prob.x.fill(0.0);
    auto& tracer = prob.rt.tracer();
    if (seed == 303) {
      ASSERT_EQ(proj.size(), 2U);
      tracer.reset();
    }
    tracer.push_phase("projection");
    proj.project(prob.a, prob.b, prob.x, false);
    tracer.pop_phase();
    const SolveStats st = gmres_solve(prob.a, prob.b, prob.x, m, opts);
    ASSERT_TRUE(st.converged);
    tracer.push_phase("projection");
    proj.absorb(prob.a, prob.x, st);
    tracer.pop_phase();
  }
  ASSERT_EQ(proj.size(), 3U);
  const auto& ph = prob.rt.tracer().phase("projection");
  EXPECT_EQ(ph.total_kernels(), 84);
  EXPECT_EQ(ph.messages, 12);     // two halo exchanges
  EXPECT_EQ(ph.collectives, 4);   // project 1, absorb 2 passes + A-norm
  EXPECT_EQ(ph.total_bytes(), 124416.0);
  EXPECT_EQ(ph.total_index_bytes(), 10368.0);
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
