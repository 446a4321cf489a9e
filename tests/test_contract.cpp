// Tests for the machine-checked threading contract (par/contract.hpp):
// violations of the rank-parallel rules must throw exw::Error with a
// diagnostic naming the offending ranks, and the checks must compile to
// nothing when EXW_CONTRACT_CHECKS=OFF.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "assembly/graph.hpp"
#include "assembly/ij.hpp"
#include "assembly/layout.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "par/contract.hpp"
#include "par/tags.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"
#include "par/thread_pool.hpp"
#include "mesh/meshdb.hpp"
#include "sparse/csr.hpp"

namespace exw {
namespace {

using par::contract::ScopedRankContext;

/// Run `body` and return the Error message it threw (fails if it didn't).
template <typename Fn>
std::string thrown_message(Fn&& body) {
  try {
    body();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a contract violation, none was thrown";
  return {};
}

// --- always-on transport rank validation (independent of the contract) ---

TEST(TransportRanks, OutOfRangeRankThrowsInsteadOfAliasing) {
  // Regression: shard() used to wrap out-of-range ids via modulo, so an
  // invalid dst silently landed in another rank's mailbox.
  par::Runtime rt(4);
  EXPECT_THROW(rt.transport().send<int>(RankId{0}, RankId{4}, par::tags::kTestPing, {1}), Error);
  EXPECT_THROW(rt.transport().send<int>(RankId{-1}, RankId{2}, par::tags::kTestPing, {1}), Error);
  EXPECT_THROW(rt.transport().send<int>(RankId{0}, RankId{7}, par::tags::kTestPing, {1}), Error);
  EXPECT_THROW(rt.transport().recv<int>(RankId{4}, RankId{0}, par::tags::kTestPing), Error);
  EXPECT_THROW(rt.transport().recv<int>(RankId{0}, RankId{-2}, par::tags::kTestPing), Error);
  EXPECT_THROW(rt.transport().has_message(RankId{5}, RankId{0}, par::tags::kTestPing), Error);
  EXPECT_THROW(rt.transport().has_message(RankId{0}, RankId{4}, par::tags::kTestPing), Error);
  // Nothing was delivered anywhere.
  EXPECT_TRUE(rt.transport().drained());
}

#if EXW_CONTRACT_CHECKS_ENABLED

// --- contract violations must throw with actionable diagnostics ----------

TEST(Contract, WrongRankSendThrowsNamingBothRanks) {
  par::Runtime rt(4);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (r == RankId{1}) {
        // Rank body 1 impersonates rank 0 as the sender.
        rt.transport().send<int>(RankId{0}, RankId{2}, par::tags::kTestPing, {42});
      }
    });
  });
  EXPECT_NE(msg.find("rank body 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("src 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Transport::send"), std::string::npos) << msg;
}

TEST(Contract, WrongRankRecvThrowsNamingBothRanks) {
  par::Runtime rt(4);
  rt.transport().send<int>(RankId{0}, RankId{2}, par::tags::kTestPing, {42});
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (r == RankId{3}) {
        // Rank body 3 drains rank 2's mailbox.
        rt.transport().recv<int>(RankId{2}, RankId{0}, par::tags::kTestPing);
      }
    });
  });
  EXPECT_NE(msg.find("rank body 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dst 2"), std::string::npos) << msg;
  // Drain the message on the orchestrator so nothing leaks into the next test.
  (void)rt.transport().recv<int>(RankId{2}, RankId{0}, par::tags::kTestPing);
}

TEST(Contract, CrossRankParVectorWriteThrows) {
  par::Runtime rt(4);
  linalg::ParVector v(rt, par::RowPartition::even(GlobalIndex{64}, rt.nranks()));
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      // Every body writes its right neighbor's slice — cross-rank.
      v.local(RankId{(r.value() + 1) % rt.nranks()})[0] = 1.0;
    });
  });
  EXPECT_NE(msg.find("ParVector::local"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank body"), std::string::npos) << msg;
  EXPECT_NE(msg.find("parvector.hpp"), std::string::npos) << msg;
}

TEST(Contract, CrossRankParCsrBlockMutThrows) {
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{8}, 2);
  auto a = linalg::ParCsr::from_serial(rt, sparse::Csr::identity(LocalIndex{8}), rows, rows);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      a.block_mut(RankId{1 - r.value()});
    });
  });
  EXPECT_NE(msg.find("ParCsr::block_mut"), std::string::npos) << msg;
}

TEST(Contract, PhasePushInsideRegionThrows) {
  par::Runtime rt(4);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (r == RankId{2}) {
        rt.tracer().push_phase("illegal");
      }
    });
  });
  EXPECT_NE(msg.find("push_phase"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank body 2"), std::string::npos) << msg;
  // The stack must be unchanged: the root phase is still open.
  EXPECT_EQ(rt.tracer().current_phase(), "");
}

TEST(Contract, PhasePopInsideRegionThrows) {
  par::Runtime rt(4);
  rt.tracer().push_phase("outer");
  EXPECT_THROW(rt.parallel_for_ranks([&](RankId) { rt.tracer().pop_phase(); }),
               Error);
  EXPECT_EQ(rt.tracer().current_phase(), "outer");
  rt.tracer().pop_phase();
}

TEST(Contract, WrongRankKernelChargeThrows) {
  par::Runtime rt(4);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      rt.tracer().kernel(RankId{(r.value() + 1) % rt.nranks()}, 1.0, 1.0);
    });
  });
  EXPECT_NE(msg.find("Tracer::kernel"), std::string::npos) << msg;
}

TEST(Contract, WrongRankMessageChargeThrows) {
  par::Runtime rt(4);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (r == RankId{0}) {
        rt.tracer().message(RankId{3}, RankId{0}, 8.0);
      }
    });
  });
  EXPECT_NE(msg.find("rank body 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("src 3"), std::string::npos) << msg;
}

TEST(Contract, WrongRankMessageReceiptThrows) {
  // The receive half of a message charge belongs to the receiver's body.
  par::Runtime rt(4);
  const auto stamp = rt.tracer().message_sent(RankId{0}, RankId{2}, 8.0);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (r == RankId{1}) {
        rt.tracer().message_received(RankId{2}, RankId{0}, 8.0, stamp);
      }
    });
  });
  EXPECT_NE(msg.find("rank body 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dst 2"), std::string::npos) << msg;
}

TEST(Contract, ReceiptAfterSendingPhasePoppedThrows) {
  // A message's receive half lands in the phase that sent it; once that
  // phase popped, its totals were already rolled up, so a late receipt
  // would be lost to every enclosing phase. Reopening the phase by name
  // does not make it the same opening.
  par::Runtime rt(2);
  rt.tracer().push_phase("send");
  rt.transport().send<int>(RankId{0}, RankId{1}, par::tags::kTestPing, {1});
  rt.tracer().pop_phase();
  rt.tracer().push_phase("send");
  const std::string msg = thrown_message([&] {
    (void)rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestPing);
  });
  rt.tracer().pop_phase();
  EXPECT_NE(msg.find("after the tracer phase that sent it was popped"),
            std::string::npos)
      << msg;
  EXPECT_TRUE(rt.transport().drained());
}

TEST(Contract, ChannelTrafficIsCheckedLikeTransport) {
  // ParCsr's persistent channels bypass the Transport but not the
  // checks: every halo message runs the send check and both message
  // charge halves, and the receiver's half is counted on its own.
  par::Runtime rt(4);
  const auto rows = par::RowPartition::even(GlobalIndex{16}, 4);
  sparse::Csr lap = sparse::Csr::identity(LocalIndex{16});
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  for (int i = 0; i < 16; ++i) {
    for (int j : {i - 1, i, i + 1}) {
      if (j < 0 || j >= 16) continue;
      ti.push_back(LocalIndex{i});
      tj.push_back(LocalIndex{j});
      tv.push_back(i == j ? 2.0 : -1.0);
    }
  }
  lap = sparse::Csr::from_triples(LocalIndex{16}, LocalIndex{16},
                                  std::move(ti), std::move(tj), std::move(tv));
  const auto a = linalg::ParCsr::from_serial(rt, lap, rows, rows);
  linalg::ParVector x(rt, rows), y(rt, rows);
  x.fill(1.0);
  long channels = 0;
  for (const auto& r : a.comm().recvs) channels += static_cast<long>(r.size());
  ASSERT_EQ(channels, 6);  // a 1-D chain of 4 ranks
  par::contract::reset();
  a.matvec(x, y);
  a.matvec_transpose(x, y);
  const auto rep = par::contract::report();
  EXPECT_EQ(rep.sends, 2 * channels);
  EXPECT_EQ(rep.recvs, 2 * channels);
  EXPECT_EQ(rep.message_charges, 2 * channels);
  EXPECT_EQ(rep.message_receipts, 2 * channels);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_EQ(rt.tracer().phase("").messages, 2 * channels);
}

TEST(Contract, CrossRankIJAssemblyWriteThrows) {
  par::Runtime rt(2);
  const auto rows = par::RowPartition::even(GlobalIndex{8}, 2);
  assembly::IJMatrix ij(rt, rows, rows);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      // Body r stages entries into the *other* rank's buffers.
      const RankId other{1 - r.value()};
      const std::vector<GlobalIndex> row{rows.first_row(other)};
      const std::vector<Real> val{1.0};
      ij.SetValues2(other, row, row, val);
    });
  });
  EXPECT_NE(msg.find("IJMatrix::SetValues2"), std::string::npos) << msg;
}

TEST(Contract, CrossRankEquationGraphWriteThrows) {
  par::Runtime rt(2);
  mesh::MeshDB db;
  const GlobalIndex n{3};
  mesh::StructuredBlockBuilder block(n, n, n);
  block.emit(db, [](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  const std::vector<std::uint8_t> dirichlet(
      static_cast<std::size_t>(db.num_nodes()), 0);
  const auto layout =
      assembly::make_layout(db, rt.nranks(), assembly::PartitionMethod::kRcb);
  assembly::EquationGraph graph(db, layout, dirichlet);
  const std::string msg = thrown_message([&] {
    rt.parallel_for_ranks([&](RankId r) {
      // Body r adds the diagonal of a node the *other* rank owns.
      const RankId other{1 - r.value()};
      graph.add_node(layout.nodes_of(other).front(), 1.0, 0.0);
    });
  });
  EXPECT_NE(msg.find("EquationGraph::apply"), std::string::npos) << msg;
}

TEST(Contract, TwoThreadsOnOneChannelThrows) {
  // The FIFO-determinism invariant, checked below the rank-context layer:
  // two distinct threads sending on one (src, dst, tag) channel within a
  // region is rejected even if both carry the right rank context.
  par::contract::begin_region();
  // Keep the first sender alive while the second sends: pool threads all
  // live for the whole region, and a joined thread's id may be reused.
  std::atomic<bool> first_sent{false};
  std::atomic<bool> release_first{false};
  std::thread first([&] {
    ScopedRankContext ctx(RankId{0});
    par::contract::check_send(RankId{0}, RankId{1}, 7, "test");
    first_sent.store(true);
    while (!release_first.load()) {
      std::this_thread::yield();
    }
  });
  while (!first_sent.load()) {
    std::this_thread::yield();
  }
  std::string msg;
  std::thread second([&msg] {
    ScopedRankContext ctx(RankId{0});
    try {
      par::contract::check_send(RankId{0}, RankId{1}, 7, "test");
    } catch (const Error& e) {
      msg = e.what();
    }
  });
  second.join();
  release_first.store(true);
  first.join();
  par::contract::end_region();
  EXPECT_NE(msg.find("two distinct threads"), std::string::npos) << msg;
  EXPECT_NE(msg.find("FIFO"), std::string::npos) << msg;
}

TEST(Contract, SameThreadMaySendTwiceOnOneChannel) {
  // FIFO per channel with a single sender is exactly what the transport
  // promises — repeated sends from one body must stay legal.
  par::Runtime rt(2);
  rt.parallel_for_ranks([&](RankId r) {
    if (r == RankId{0}) {
      rt.transport().send<int>(RankId{0}, RankId{1}, par::tags::kTestFifo, {1});
      rt.transport().send<int>(RankId{0}, RankId{1}, par::tags::kTestFifo, {2});
    }
  });
  EXPECT_EQ(rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestFifo)[0], 1);
  EXPECT_EQ(rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestFifo)[0], 2);
}

TEST(Contract, OrchestratorIsUnrestrictedBetweenRegions) {
  // Outside parallel regions there is no rank context: the orchestrator
  // may touch any rank's state, send as anyone, and manage phases.
  par::Runtime rt(3);
  linalg::ParVector v(rt, par::RowPartition::even(GlobalIndex{30}, 3));
  v.local(RankId{2})[0] = 4.0;
  rt.transport().send<int>(RankId{1}, RankId{2}, par::tags::kTestRelay, {9});
  EXPECT_EQ(rt.transport().recv<int>(RankId{2}, RankId{1}, par::tags::kTestRelay)[0], 9);
  rt.tracer().push_phase("ok");
  rt.tracer().kernel(RankId{1}, 1.0, 1.0);
  rt.tracer().pop_phase();
  EXPECT_EQ(par::contract::current_rank(), par::contract::kNoRank);
}

TEST(Contract, ReportCountsCheckedRegionsAndCalls) {
  par::contract::reset();
  par::Runtime rt(4);
  linalg::ParVector x(rt, par::RowPartition::even(GlobalIndex{64}, 4));
  linalg::ParVector y(rt, par::RowPartition::even(GlobalIndex{64}, 4));
  x.fill(1.0);
  y.fill(2.0);
  (void)x.dot(y);
  rt.parallel_for_ranks([&](RankId r) { x.local(r)[0] += 1.0; });
  rt.parallel_for_ranks([&](RankId r) {
    rt.transport().send<int>(r, RankId{(r.value() + 1) % 4}, par::tags::kTestRing, {1});
  });
  rt.parallel_for_ranks(
      [&](RankId r) { (void)rt.transport().recv<int>(r, RankId{(r.value() + 3) % 4}, par::tags::kTestRing); });
  const auto rep = par::contract::report();
  EXPECT_GE(rep.regions, 6);         // fill x2, dot, write, send, recv
  EXPECT_GE(rep.sends, 4);
  EXPECT_GE(rep.recvs, 4);
  EXPECT_GE(rep.rank_writes, 4);     // the local(r) region, one per rank
  EXPECT_GE(rep.kernel_charges, 12);
  EXPECT_GE(rep.message_charges, 4);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_FALSE(par::contract::summary().empty());
  EXPECT_TRUE(rt.transport().drained());
}

TEST(Contract, ViolationsAreCountedInReport) {
  par::contract::reset();
  par::Runtime rt(2);
  linalg::ParVector v(rt, par::RowPartition::even(GlobalIndex{8}, 2));
  EXPECT_THROW(
      rt.parallel_for_ranks([&](RankId r) { v.local(RankId{1 - r.value()})[0] = 1.0; }),
      Error);
  EXPECT_GE(par::contract::report().violations, 1);
}

TEST(Contract, NestedParallelForKeepsOuterRankContext) {
  // Nested regions run inline as part of the outer body, so contract
  // checks inside them still attribute work to the outer rank.
  par::Runtime rt(4);
  rt.parallel_for_ranks([&](RankId r) {
    par::parallel_for(3, [&](int) {
      EXPECT_EQ(par::contract::current_rank(), r);
      rt.transport().send<int>(r, r, par::tags::kTestSelf, {1});
      (void)rt.transport().recv<int>(r, r, par::tags::kTestSelf);
    });
  });
  EXPECT_TRUE(rt.transport().drained());
}

#else  // !EXW_CONTRACT_CHECKS_ENABLED

// --- with checks off, the macros must compile to nothing -----------------

TEST(Contract, ChecksCompileToNothingWhenOff) {
  EXPECT_FALSE(par::contract::enabled());
  // EXW_CONTRACT_CHECK must not evaluate its argument at all.
  int evaluated = 0;
  EXW_CONTRACT_CHECK(evaluated = 1);
  EXW_CONTRACT_CHECK_WRITE(evaluated = 1, "never evaluated");
  EXPECT_EQ(evaluated, 0);
}

TEST(Contract, ViolationsPassSilentlyWhenOff) {
  // The same cross-rank write that throws in checked builds is simply
  // not observed (the races it would catch are the user's problem —
  // this configuration exists for release-mode performance).
  par::Runtime rt(2);
  linalg::ParVector v(rt, par::RowPartition::even(GlobalIndex{8}, 2));
  // The same cross-rank write that throws in checked builds. The two
  // bodies touch disjoint slots, so it is well-defined — just contract-
  // breaking — and must pass silently here.
  EXPECT_NO_THROW(rt.parallel_for_ranks(
      [&](RankId r) { v.local(RankId{1 - r.value()})[0] = 1.0; }));
  EXPECT_EQ(par::contract::report().regions, 0);
}

#endif  // EXW_CONTRACT_CHECKS_ENABLED

}  // namespace
}  // namespace exw
