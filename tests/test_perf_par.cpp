// Unit tests: machine models, tracer accounting, simulated transport,
// and the shared-memory parallel rank executor.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "par/runtime.hpp"
#include "par/tags.hpp"
#include "par/thread_pool.hpp"
#include "perf/machine_model.hpp"
#include "perf/tracer.hpp"

namespace exw {
namespace {

TEST(MachineModel, KernelTimeIsRoofline) {
  perf::MachineModel m;
  m.flops_per_s = 100;
  m.bytes_per_s = 10;
  m.kernel_launch_s = 1.0;
  // Compute-bound.
  EXPECT_DOUBLE_EQ(m.kernel_time(1000, 1), 10.0 + 1.0);
  // Bandwidth-bound.
  EXPECT_DOUBLE_EQ(m.kernel_time(1, 1000), 100.0 + 1.0);
}

TEST(MachineModel, MessageAlphaBeta) {
  perf::MachineModel m;
  m.msg_latency_s = 2.0;
  m.msg_bytes_per_s = 4.0;
  EXPECT_DOUBLE_EQ(m.message_time(8.0), 4.0);
}

TEST(MachineModel, AllreduceLogScaling) {
  perf::MachineModel m;
  m.coll_hop_s = 1.0;
  m.msg_bytes_per_s = 1e30;
  EXPECT_DOUBLE_EQ(m.allreduce_time(8, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.allreduce_time(8, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.allreduce_time(8, 8), 3.0);
  EXPECT_DOUBLE_EQ(m.allreduce_time(8, 9), 4.0);
}

TEST(MachineModel, PlatformOrdering) {
  // Per-rank GPU throughput dwarfs a CPU core; GPU overheads dwarf CPU's.
  const auto gpu = perf::MachineModel::summit_gpu();
  const auto cpu = perf::MachineModel::summit_cpu();
  const auto eagle = perf::MachineModel::eagle_gpu();
  EXPECT_GT(gpu.bytes_per_s, 50 * cpu.bytes_per_s);
  EXPECT_GT(gpu.kernel_launch_s, 10 * cpu.kernel_launch_s);
  EXPECT_GT(gpu.msg_latency_s, cpu.msg_latency_s);
  // Eagle's MPI path is the cheaper one (paper Fig. 11).
  EXPECT_LT(eagle.msg_latency_s, gpu.msg_latency_s);
}

TEST(Tracer, PhaseNestingChargesAllOpenPhases) {
  perf::Tracer t(2);
  {
    perf::PhaseScope outer(t, "eq");
    t.kernel(RankId{0}, 100, 10);
    {
      perf::PhaseScope inner(t, "solve");
      t.kernel(RankId{1}, 200, 20);
    }
    // The open phases are charged through pointers into the registry;
    // 64 new names must not move the entries "" and "eq" live in.
    for (int i = 0; i < 64; ++i) {
      perf::PhaseScope inner(t, std::to_string(i));
      t.kernel(RankId{0}, 1, 1);
      t.message(RankId{0}, RankId{1}, 8);
      t.collective(8);
    }
    perf::PhaseScope again(t, "7");
    t.kernel(RankId{1}, 2, 2);
  }
  for (const char* name : {"", "eq"}) {
    const auto& s = t.phase(name);
    EXPECT_DOUBLE_EQ(s.total_flops(), 100 + 200 + 64 + 2);
    EXPECT_EQ(s.total_kernels(), 2 + 64 + 1);
    EXPECT_EQ(s.total_messages(), 64);
    EXPECT_EQ(s.collectives, 64);
  }
  EXPECT_DOUBLE_EQ(t.phase("eq/solve").total_flops(), 200);
  // Re-opening a name charges its first entry.
  const auto& s7 = t.phase("eq/7");
  EXPECT_DOUBLE_EQ(s7.total_flops(), 1 + 2);
  EXPECT_EQ(s7.total_kernels(), 2);
  EXPECT_EQ(s7.total_messages(), 1);
  EXPECT_EQ(s7.collectives, 1);
}

TEST(Tracer, ModeledTimeIsMaxOverRanks) {
  perf::Tracer t(2);
  perf::MachineModel m;
  m.flops_per_s = 1.0;
  m.bytes_per_s = 1e30;
  m.kernel_launch_s = 0.0;
  t.kernel(RankId{0}, 5, 0);
  t.kernel(RankId{1}, 9, 0);
  EXPECT_DOUBLE_EQ(t.phase("").modeled_time(m), 9.0);
}

TEST(Tracer, MessageChargedToBothEndpoints) {
  perf::Tracer t(3);
  t.message(RankId{0}, RankId{2}, 100);
  const auto& s = t.phase("");
  EXPECT_EQ(s.rank[0].msgs, 1);
  EXPECT_EQ(s.rank[2].msgs, 1);
  EXPECT_EQ(s.rank[1].msgs, 0);
  EXPECT_EQ(s.total_messages(), 1);
}

TEST(Tracer, SelfMessageCountedOnce) {
  // Regression: total_messages() used to halve the per-rank sum, which
  // undercounts when a rank routes shared COO triples to itself
  // (assembly charges dst == src only once).
  perf::Tracer t(2);
  t.message(RankId{0}, RankId{1}, 8);  // charged to both endpoints
  t.message(RankId{1}, RankId{1}, 8);  // self-message: charged once
  const auto& s = t.phase("");
  EXPECT_EQ(s.rank[0].msgs, 1);
  EXPECT_EQ(s.rank[1].msgs, 2);
  EXPECT_EQ(s.total_messages(), 2);
}

TEST(Tracer, ResetClearsMessageCount) {
  perf::Tracer t(2);
  t.message(RankId{0}, RankId{1}, 8);
  t.reset();
  EXPECT_EQ(t.phase("").total_messages(), 0);
}

TEST(Tracer, CollectiveScalesWithRanks) {
  perf::MachineModel m;
  m.coll_hop_s = 1.0;
  m.msg_bytes_per_s = 1e30;
  perf::Tracer t2(2), t16(16);
  t2.collective(8);
  t16.collective(8);
  EXPECT_LT(t2.phase("").modeled_time(m), t16.phase("").modeled_time(m));
}

TEST(Tracer, ResetClearsWorkKeepsPhases) {
  perf::Tracer t(1);
  t.push_phase("a");
  t.kernel(RankId{0}, 10, 10);
  t.pop_phase();
  t.reset();
  EXPECT_TRUE(t.has_phase("a"));
  EXPECT_DOUBLE_EQ(t.phase("a").total_flops(), 0);
}

TEST(Transport, SendRecvRoundtrip) {
  par::Runtime rt(3);
  rt.transport().send<int>(RankId{0}, RankId{2}, par::tags::kTestPing, {1, 2, 3});
  EXPECT_TRUE(rt.transport().has_message(RankId{2}, RankId{0}, par::tags::kTestPing));
  const auto msg = rt.transport().recv<int>(RankId{2}, RankId{0}, par::tags::kTestPing);
  EXPECT_EQ(msg, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(rt.transport().drained());
}

TEST(Transport, FifoPerChannel) {
  par::Runtime rt(2);
  rt.transport().send<int>(RankId{0}, RankId{1}, par::tags::kTestFifo, {1});
  rt.transport().send<int>(RankId{0}, RankId{1}, par::tags::kTestFifo, {2});
  EXPECT_EQ(rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestFifo)[0], 1);
  EXPECT_EQ(rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestFifo)[0], 2);
}

TEST(Transport, RecvWithoutMessageThrows) {
  par::Runtime rt(2);
  EXPECT_THROW(rt.transport().recv<int>(RankId{1}, RankId{0}, par::tags::kTestEmpty), Error);
}

TEST(Runtime, AllreduceSumAndMax) {
  par::Runtime rt(4);
  EXPECT_DOUBLE_EQ(rt.allreduce_sum(std::vector<double>{1, 2, 3, 4}), 10.0);
  EXPECT_EQ(rt.allreduce_max(std::vector<GlobalIndex>{GlobalIndex{5}, GlobalIndex{9}, GlobalIndex{2}, GlobalIndex{7}}), GlobalIndex{9});
  const auto v = rt.allreduce_sum_vec({{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  EXPECT_DOUBLE_EQ(v[0], 16);
  EXPECT_DOUBLE_EQ(v[1], 20);
  // Three collectives were charged.
  EXPECT_EQ(rt.tracer().phase("").collectives, 3);
}

TEST(Runtime, AllreduceMaxAllNegative) {
  // Regression: the accumulator used to start at 0, so an all-negative
  // reduction wrongly returned 0.
  par::Runtime rt(3);
  EXPECT_EQ(rt.allreduce_max(std::vector<GlobalIndex>{GlobalIndex{-5}, GlobalIndex{-9}, GlobalIndex{-2}}), GlobalIndex{-2});
  EXPECT_EQ(rt.allreduce_max(std::vector<GlobalIndex>{GlobalIndex{-7}, GlobalIndex{-7}, GlobalIndex{-7}}), GlobalIndex{-7});
}

TEST(ThreadPool, ParallelForRanksRunsEveryBodyExactlyOnce) {
  par::Runtime rt(64);
  std::vector<int> hits(64, 0);
  rt.parallel_for_ranks([&](RankId r) { hits[static_cast<std::size_t>(r)] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, PropagatesBodyException) {
  par::Runtime rt(8);
  EXPECT_THROW(rt.parallel_for_ranks([&](RankId r) {
    EXW_REQUIRE(r != RankId{5}, "boom");
  }),
               Error);
}

TEST(ThreadPool, NestedRegionsRunInline) {
  par::Runtime rt(4);
  std::atomic<int> total{0};
  rt.parallel_for_ranks([&](RankId) {
    EXPECT_TRUE(par::in_parallel_region() || par::serial_mode() ||
                par::ThreadPool::instance().num_threads() == 1);
    par::parallel_for(3, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 12);
}

TEST(ThreadPool, SerialModeForcesInlineExecution) {
  par::set_serial_mode(true);
  std::vector<int> order;
  par::parallel_for(8, [&](int i) { order.push_back(i); });  // no data race
  par::set_serial_mode(false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Transport, ConcurrentSendsFromRankBodiesAreSafe) {
  // Every rank posts to every other rank inside one parallel region, then
  // every rank drains its inbox in a second region. FIFO per channel and
  // exact message counts must survive the concurrency.
  const int nranks = 16;
  par::Runtime rt(nranks);
  rt.parallel_for_ranks([&](RankId src) {
    for (RankId dst{0}; dst.value() < nranks; ++dst) {
      rt.transport().send<int>(src, dst, par::tags::kTestRing, {src.value(), dst.value(), 1});
      rt.transport().send<int>(src, dst, par::tags::kTestRing, {src.value(), dst.value(), 2});
    }
  });
  std::atomic<int> received{0};
  rt.parallel_for_ranks([&](RankId dst) {
    for (RankId src{0}; src.value() < nranks; ++src) {
      const auto first = rt.transport().recv<int>(dst, src, par::tags::kTestRing);
      const auto second = rt.transport().recv<int>(dst, src, par::tags::kTestRing);
      if (first == std::vector<int>{src.value(), dst.value(), 1} &&
          second == std::vector<int>{src.value(), dst.value(), 2}) {
        received.fetch_add(2);
      }
    }
  });
  EXPECT_EQ(received.load(), 2 * nranks * nranks);
  EXPECT_TRUE(rt.transport().drained());
  // Exact count: nranks self-messages + nranks*(nranks-1) pair messages,
  // two of each.
  EXPECT_EQ(rt.tracer().phase("").total_messages(), 2 * nranks * nranks);
  // Per-rank charges are exact even though each rank is charged as src
  // by its own thread and as dst by neighbor threads concurrently
  // (regression: the src-side charge used to be a plain RMW racing the
  // atomic dst-side charge, losing updates). Each rank: 2*nranks sends
  // (self-messages charged once) + 2*(nranks-1) receives from others.
  const auto& root = rt.tracer().phase("");
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& w = root.rank[static_cast<std::size_t>(r)];
    EXPECT_EQ(w.msgs, 4 * nranks - 2) << "rank " << r;
    EXPECT_DOUBLE_EQ(w.msg_bytes,
                     static_cast<double>(4 * nranks - 2) * 3 * sizeof(int))
        << "rank " << r;
  }
}

TEST(ThreadPool, InlinePathRunsAllBodiesBeforeRethrow) {
  // Regression: the inline fallback used to abort at the first throwing
  // body, while the threaded path runs every remaining body and rethrows
  // afterwards — so a failure left different side effects (tracer
  // charges, pending messages) in serial vs. threaded runs.
  par::set_serial_mode(true);
  std::vector<int> hits(8, 0);
  EXPECT_THROW(par::parallel_for(8,
                                 [&](int i) {
                                   hits[static_cast<std::size_t>(i)] += 1;
                                   EXW_REQUIRE(i != 2, "boom");
                                 }),
               Error);
  par::set_serial_mode(false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "body " << i;
  }
}

}  // namespace
}  // namespace exw
