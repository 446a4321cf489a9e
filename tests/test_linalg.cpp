// Property tests: distributed vectors/matrices must reproduce their
// serial counterparts for every rank count, in every lane of 1- and
// 3-lane vectors.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "test_util.hpp"

namespace exw::linalg {
namespace {

using testutil::laplace3d;
using testutil::matrix_diff;
using testutil::max_diff;
using testutil::random_rect;
using testutil::random_spd_ish;
using testutil::random_vector;

/// Lane counts every lane-generic property runs at.
constexpr std::size_t kLaneCounts[] = {1, 3};

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, VectorOpsMatchSerial) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(GlobalIndex{101}, nranks);
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    ParVector x(rt, rows, lanes), y(rt, rows, lanes);
    std::vector<RealVector> xs, ys;
    std::vector<Real> alpha, beta;
    for (std::size_t c = 0; c < lanes; ++c) {
      xs.push_back(random_vector(101, 1 + 10 * c));
      ys.push_back(random_vector(101, 2 + 10 * c));
      x.scatter(xs[c], c);
      y.scatter(ys[c], c);
      alpha.push_back(2.5 - static_cast<Real>(c));
      beta.push_back(-0.5 + 0.25 * static_cast<Real>(c));
    }

    const auto dots = x.dots(y);
    ASSERT_EQ(dots.size(), lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      double ref_dot = 0;
      for (std::size_t i = 0; i < xs[c].size(); ++i) {
        ref_dot += xs[c][i] * ys[c][i];
      }
      EXPECT_NEAR(dots[c], ref_dot, 1e-11);
    }

    x.axpy_lanes(alpha, y);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (std::size_t i = 0; i < xs[c].size(); ++i) {
        xs[c][i] += alpha[c] * ys[c][i];
      }
      EXPECT_LT(max_diff(x.gather(c), xs[c]), 1e-13);
    }

    x.scale_lanes(beta);
    for (std::size_t c = 0; c < lanes; ++c) {
      for (auto& v : xs[c]) v *= beta[c];
      EXPECT_LT(max_diff(x.gather(c), xs[c]), 1e-13);
    }
  }
}

TEST_P(RankSweep, SerialRoundtrip) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{97}, 6, 5);
  const auto rows = par::RowPartition::even(GlobalIndex{97}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  EXPECT_LT(matrix_diff(pa.to_serial(), a), 1e-15);
  EXPECT_EQ(pa.global_nnz(), GlobalIndex{a.nnz()});
}

TEST_P(RankSweep, MatvecMatchesSerial) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{120}, 7, 6);
  const auto rows = par::RowPartition::even(GlobalIndex{120}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);

  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    ParVector x(rt, rows, lanes), y(rt, rows, lanes);
    std::vector<RealVector> xs;
    for (std::size_t c = 0; c < lanes; ++c) {
      xs.push_back(random_vector(120, 7 + 10 * c));
      x.scatter(xs[c], c);
    }
    pa.matvec(x, y);

    for (std::size_t c = 0; c < lanes; ++c) {
      RealVector ref(120, 0.0);
      a.spmv(xs[c], ref);
      EXPECT_LT(max_diff(y.gather(c), ref), 1e-11);
    }
    EXPECT_TRUE(rt.transport().drained());
  }
}

TEST_P(RankSweep, RectangularMatvecAndTranspose) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_rect(LocalIndex{90}, LocalIndex{40}, 5, 8);
  const auto rows = par::RowPartition::even(GlobalIndex{90}, nranks);
  const auto cols = par::RowPartition::even(GlobalIndex{40}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, cols);

  ParVector x(rt, cols), y(rt, rows);
  const RealVector xs = random_vector(40, 9);
  x.scatter(xs);
  pa.matvec(x, y);
  RealVector ref(90, 0.0);
  a.spmv(xs, ref);
  EXPECT_LT(max_diff(y.gather(), ref), 1e-11);

  // Transpose matvec.
  ParVector xt(rt, rows), yt(rt, cols);
  const RealVector ts = random_vector(90, 10);
  xt.scatter(ts);
  pa.matvec_transpose(xt, yt);
  RealVector reft(40, 0.0);
  a.spmv_transpose(ts, reft);
  EXPECT_LT(max_diff(yt.gather(), reft), 1e-11);
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, HaloChannelsFollowLaneCountChanges) {
  // The persistent halo buffers are sized per lane count on first use;
  // switching lane counts on one matrix, interleaved with transpose
  // products, must keep every product exact. Rank 0's rows couple only
  // to themselves, so its halo buffer is empty whatever the lane count.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(GlobalIndex{96}, nranks);
  const LocalIndex n0 = rows.local_size(RankId{0});
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  const sparse::Csr lap = laplace3d(4, 0.2);  // 64 rows, coupled
  for (LocalIndex i{0}; i < LocalIndex{96}; ++i) {
    ti.push_back(i);
    tj.push_back(i);
    tv.push_back(4.0 + 0.01 * static_cast<Real>(i.value()));
    if (i >= n0 && i < LocalIndex{64}) {
      for (EntryOffset k = lap.row_begin(i); k < lap.row_end(i); ++k) {
        const LocalIndex j = lap.cols()[k];
        if (j != i && j >= n0) {
          ti.push_back(i);
          tj.push_back(LocalIndex{(j.value() * 7 + 5) % (96 - n0.value()) +
                                  n0.value()});
          tv.push_back(lap.vals()[k]);
        }
      }
    }
  }
  const auto a = sparse::Csr::from_triples(LocalIndex{96}, LocalIndex{96},
                                           std::move(ti), std::move(tj),
                                           std::move(tv));
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  EXPECT_TRUE(pa.block(RankId{0}).col_map.empty());
  for (const std::size_t lanes : {1, 3, 1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    ParVector x(rt, rows, lanes), y(rt, rows, lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      x.scatter(random_vector(96, 40 + lanes + c), c);
    }
    pa.matvec(x, y);
    for (std::size_t c = 0; c < lanes; ++c) {
      RealVector ref(96, 0.0);
      a.spmv(x.gather(c), ref);
      EXPECT_LT(max_diff(y.gather(c), ref), 1e-12);
    }
    ParVector xt(rt, rows), yt(rt, rows);
    xt.scatter(random_vector(96, 60 + lanes));
    pa.matvec_transpose(xt, yt);
    RealVector reft(96, 0.0);
    a.spmv_transpose(xt.gather(), reft);
    EXPECT_LT(max_diff(yt.gather(), reft), 1e-12);
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, ResidualIsExact) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = laplace3d(5, 0.3);
  const auto rows = par::RowPartition::even(GlobalIndex{125}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    ParVector x(rt, rows, lanes), b(rt, rows, lanes), r(rt, rows, lanes);
    for (std::size_t c = 0; c < lanes; ++c) {
      x.scatter(random_vector(125, 11 + 10 * c), c);
      b.scatter(random_vector(125, 12 + 10 * c), c);
    }
    pa.residual(b, x, r);
    for (std::size_t c = 0; c < lanes; ++c) {
      RealVector ax(125, 0.0);
      a.spmv(x.gather(c), ax);
      const RealVector bs = b.gather(c);
      RealVector ref(125);
      for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = bs[i] - ax[i];
      EXPECT_LT(max_diff(r.gather(c), ref), 1e-12);
    }
  }
}

TEST_P(RankSweep, FusedResidualMatchesCopyThenMatvecBitwise) {
  // residual() copies b and runs the product in one body per rank after
  // the halo pack; it must leave every lane, and the ledger, exactly as
  // copy_from followed by matvec(x, r, -1, 1) does, on FP64 and FP32
  // vectors.
  const int nranks = GetParam();
  const sparse::Csr a = laplace3d(5, 0.3);
  const auto rows = par::RowPartition::even(GlobalIndex{125}, nranks);
  for (const Precision prec : {Precision::kF64, Precision::kF32}) {
    for (const std::size_t lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << lanes << " lanes, "
                                      << (prec == Precision::kF32 ? "fp32"
                                                                  : "fp64"));
      par::Runtime rt_fused(nranks), rt_ref(nranks);
      std::vector<RealVector> out[2];
      const perf::PhaseStats* ledger[2] = {nullptr, nullptr};
      for (const bool fused : {true, false}) {
        par::Runtime& rt = fused ? rt_fused : rt_ref;
        const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
        ParVector x(rt, rows, lanes, prec), b(rt, rows, lanes, prec),
            r(rt, rows, lanes, prec);
        for (std::size_t c = 0; c < lanes; ++c) {
          x.scatter(random_vector(125, 31 + 10 * c), c);
          b.scatter(random_vector(125, 32 + 10 * c), c);
        }
        rt.tracer().reset();
        if (fused) {
          pa.residual(b, x, r);
        } else {
          r.copy_from(b);
          pa.matvec(x, r, -1.0, 1.0);
        }
        for (std::size_t c = 0; c < lanes; ++c) {
          out[fused ? 0 : 1].push_back(r.gather(c));
        }
        ledger[fused ? 0 : 1] = &rt.tracer().phase("");
      }
      for (std::size_t c = 0; c < lanes; ++c) {
        EXPECT_EQ(out[0][c], out[1][c]) << "lane " << c;
      }
      for (int rk = 0; rk < nranks; ++rk) {
        const auto& f = ledger[0]->rank[static_cast<std::size_t>(rk)];
        const auto& g = ledger[1]->rank[static_cast<std::size_t>(rk)];
        EXPECT_EQ(f.kernels, g.kernels) << "rank " << rk;
        EXPECT_EQ(f.flops, g.flops) << "rank " << rk;
        EXPECT_EQ(f.bytes, g.bytes) << "rank " << rk;
        EXPECT_EQ(f.value_bytes_f32, g.value_bytes_f32) << "rank " << rk;
        EXPECT_EQ(f.msgs, g.msgs) << "rank " << rk;
        EXPECT_EQ(f.msg_bytes, g.msg_bytes) << "rank " << rk;
      }
      EXPECT_EQ(ledger[0]->messages, ledger[1]->messages);
    }
  }
}

TEST_P(RankSweep, FetchExternalRows) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = random_spd_ish(LocalIndex{64}, 5, 13);
  const auto rows = par::RowPartition::even(GlobalIndex{64}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);

  // Each rank requests three rows owned by other ranks.
  std::vector<std::vector<GlobalIndex>> needed(static_cast<std::size_t>(nranks));
  for (RankId r{0}; r.value() < nranks; ++r) {
    for (GlobalIndex g{0}; g < GlobalIndex{64}; g += 23) {
      if (!rows.owns(r, g)) {
        needed[static_cast<std::size_t>(r)].push_back(g);
      }
    }
  }
  const auto ext = fetch_external_rows(pa, needed);
  for (RankId r{0}; r.value() < nranks; ++r) {
    for (GlobalIndex g : needed[static_cast<std::size_t>(r)]) {
      const auto idx = ext[static_cast<std::size_t>(r)].find(g);
      ASSERT_NE(idx, static_cast<std::size_t>(-1));
      const auto& e = ext[static_cast<std::size_t>(r)];
      // Row content matches the serial matrix.
      const auto gi = checked_narrow<LocalIndex>(g);
      const auto len = e.row_ptr[idx + 1] - e.row_ptr[idx];
      EXPECT_EQ(checked_narrow<LocalIndex>(len), a.row_nnz(gi));
      for (std::size_t k = e.row_ptr[idx]; k < e.row_ptr[idx + 1]; ++k) {
        EXPECT_NEAR(e.vals[k], a.at(gi, checked_narrow<LocalIndex>(e.cols[k])), 1e-15);
      }
    }
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST_P(RankSweep, NnzPerRankSumsToGlobal) {
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const sparse::Csr a = laplace3d(5);
  const auto rows = par::RowPartition::even(GlobalIndex{125}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  double total = 0;
  for (double v : pa.nnz_per_rank()) total += v;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(a.nnz()));
}

TEST_P(RankSweep, LaneBasisOpsMatchSerial) {
  // A 4-lane basis against one vector: every leading lane count of
  // dots_against, and a combination of every leading lane count.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(GlobalIndex{101}, nranks);
  constexpr std::size_t kLanes = 4;
  ParVector basis(rt, rows, kLanes), y(rt, rows);
  std::vector<RealVector> xs;
  for (std::size_t c = 0; c < kLanes; ++c) {
    xs.push_back(random_vector(101, 3 + 10 * c));
    basis.scatter(xs[c], c);
  }
  RealVector ys = random_vector(101, 4);
  y.scatter(ys);

  for (std::size_t count = 1; count <= kLanes; ++count) {
    SCOPED_TRACE(testing::Message() << count << " lanes");
    const auto dots = basis.dots_against(y, count);
    ASSERT_EQ(dots.size(), count);
    for (std::size_t c = 0; c < count; ++c) {
      double ref = 0;
      for (std::size_t i = 0; i < ys.size(); ++i) ref += xs[c][i] * ys[i];
      EXPECT_NEAR(dots[c], ref, 1e-11);
    }

    std::vector<Real> coef;
    for (std::size_t c = 0; c < count; ++c) {
      coef.push_back(0.75 - 0.5 * static_cast<Real>(c));
    }
    y.axpy_combination(coef, basis);
    for (std::size_t c = 0; c < count; ++c) {
      for (std::size_t i = 0; i < ys.size(); ++i) ys[i] += coef[c] * xs[c][i];
    }
    EXPECT_LT(max_diff(y.gather(), ys), 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST(ParVector, LaneBasisOpsRejectLaneCountAndPrecisionMismatches) {
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{20}, 2);
  ParVector basis(rt, rows, 3), y(rt, rows), y2(rt, rows, 2);
  ParVector basis32(rt, rows, 3, Precision::kF32);
  ParVector y32(rt, rows, 1, Precision::kF32);
  const std::vector<Real> coef3(3, 1.0), coef4(4, 1.0);
  EXPECT_THROW((void)basis.dots_against(y2, 1), Error);      // 2-lane y
  EXPECT_THROW((void)basis.dots_against(y, 0), Error);       // no lane
  EXPECT_THROW((void)basis.dots_against(y, 4), Error);       // past ncomp
  EXPECT_THROW((void)basis32.dots_against(y, 1), Error);     // fp32 basis
  EXPECT_THROW((void)basis.dots_against(y32, 1), Error);     // fp32 y
  EXPECT_THROW(y2.axpy_combination(coef3, basis), Error);    // 2-lane y
  EXPECT_THROW(y.axpy_combination({}, basis), Error);        // no lane
  EXPECT_THROW(y.axpy_combination(coef4, basis), Error);     // past ncomp
  EXPECT_THROW(y.axpy_combination(coef3, basis32), Error);   // fp32 basis
  EXPECT_THROW(y32.axpy_combination(coef3, basis), Error);   // fp32 y
}

TEST(ParCsr, MatvecChargesHaloMessages) {
  par::Runtime rt(4);
  const sparse::Csr a = laplace3d(6, 0.1);
  const auto rows = par::RowPartition::even(GlobalIndex{216}, 4);
  const ParCsr pa = ParCsr::from_serial(rt, a, rows, rows);
  ParVector x(rt, rows), y(rt, rows);
  x.fill(1.0);
  rt.tracer().reset();
  pa.matvec(x, y);
  // A block-partitioned 3D Laplacian has neighbor couplings: messages
  // must have been charged.
  EXPECT_GT(rt.tracer().phase("").total_messages(), 0);
}

TEST(ParCsr, ExchangeChargesOneKernelPerRankAndOneMessagePerPair) {
  // Like hypre's comm package, an owner packs all its neighbors' runs in
  // one gather kernel and adds a transpose product's contributions in
  // one scatter-add kernel, whatever its neighbor count; every message
  // stays per neighbor pair. On 8 ranks of laplace3d(6), middle ranks
  // couple to four neighbors.
  const int nranks = 8;
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(GlobalIndex{216}, nranks);
  const ParCsr pa = ParCsr::from_serial(rt, laplace3d(6, 0.1), rows, rows);
  const auto& comm = pa.comm();
  std::size_t most = 0;
  long pairs = 0;
  for (const auto& sends : comm.sends) {
    most = std::max(most, sends.size());
    pairs += static_cast<long>(sends.size());
  }
  ASSERT_GE(most, 3U);
  // Values rank r packs for its neighbors and receives from them.
  const auto sent = [&](int r) {
    double n = 0;
    for (const auto& s : comm.sends[static_cast<std::size_t>(r)]) {
      n += static_cast<double>(s.idx.size());
    }
    return n;
  };
  const auto received = [&](int r) {
    double n = 0;
    for (const auto& v : comm.recvs[static_cast<std::size_t>(r)]) {
      n += static_cast<double>(v.count.value());
    }
    return n;
  };
  const auto messages = [&](int r) {
    return static_cast<long>(comm.sends[static_cast<std::size_t>(r)].size() +
                             comm.recvs[static_cast<std::size_t>(r)].size());
  };
  const auto kernels = [&](int r) {
    return comm.sends[static_cast<std::size_t>(r)].empty() ? 0L : 1L;
  };
  auto& tracer = rt.tracer();

  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    ParVector x(rt, rows, lanes);
    x.fill(1.0);
    tracer.reset();
    tracer.push_phase("halo");
    pa.halo_pack(x);
    rt.parallel_for_ranks([&](RankId r) { (void)pa.halo_receive(r, x); });
    tracer.pop_phase();
    const auto& ph = tracer.phase("halo");
    EXPECT_EQ(ph.messages, pairs);
    const auto nl = static_cast<double>(lanes);
    for (int r = 0; r < nranks; ++r) {
      SCOPED_TRACE(testing::Message() << "rank " << r);
      const auto& w = ph.rank[static_cast<std::size_t>(r)];
      EXPECT_EQ(w.kernels, kernels(r));
      EXPECT_EQ(w.bytes, 2.0 * sizeof(Real) * nl * sent(r));
      EXPECT_EQ(w.msgs, messages(r));
      EXPECT_EQ(w.msg_bytes, sizeof(Real) * nl * (sent(r) + received(r)));
    }
  }

  ParVector xt(rt, rows), yt(rt, rows);
  xt.fill(1.0);
  tracer.reset();
  tracer.push_phase("transpose");
  pa.transpose_send(xt, yt);
  tracer.push_phase("add");
  rt.parallel_for_ranks([&](RankId r) { pa.transpose_receive(r, yt); });
  tracer.pop_phase();
  tracer.pop_phase();
  const auto& ph = tracer.phase("transpose");
  const auto& add = tracer.phase("transpose/add");
  EXPECT_EQ(ph.messages, pairs);
  for (int r = 0; r < nranks; ++r) {
    SCOPED_TRACE(testing::Message() << "rank " << r);
    const auto& w = add.rank[static_cast<std::size_t>(r)];
    EXPECT_EQ(w.kernels, kernels(r));
    EXPECT_EQ(w.flops, sent(r));
    EXPECT_EQ(w.bytes, 3.0 * sizeof(Real) * sent(r));
    const auto& t = ph.rank[static_cast<std::size_t>(r)];
    EXPECT_EQ(t.kernels, 1 + kernels(r));  // local products, then the adds
    EXPECT_EQ(t.msgs, messages(r));
    EXPECT_EQ(t.msg_bytes, sizeof(Real) * (sent(r) + received(r)));
  }
  EXPECT_TRUE(rt.transport().drained());
}

}  // namespace
}  // namespace exw::linalg
