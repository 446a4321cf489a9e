// Unit tests: machine models, tracer accounting, simulated transport,
// and the shared-memory parallel rank executor.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>

#include "par/contract.hpp"
#include "par/runtime.hpp"
#include "par/tags.hpp"
#include "par/thread_pool.hpp"
#include "perf/machine_model.hpp"
#include "perf/purity.hpp"
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

TEST(ThreadPool, ClaimProtocolSurvivesBackToBackRegions) {
  // The pool's claim word is republished every region, so the races it
  // must survive show up only over many short regions in a row: a worker
  // that wakes late, claims from a newer region than it first saw, or
  // reads the callable or purity token of the wrong region. Sizes cover
  // n < threads, n not a multiple of any thread count, and chunked n.
  constexpr int kSizes[] = {1, 2, 3, 5, 16, 24, 96, 97};
  constexpr int kRounds = 1250;  // 8 sizes x 1250 = 10,000 regions
  // Throwing bodies allocate their exception inside the purity region.
  const bool fatal = perf::purity::fatal_mode();
  perf::purity::set_fatal(false);
  std::vector<int> hits(97, 0);
  std::vector<int> nested(97, 0);
  long bad_counts = 0;
  long bad_context = 0;
  long bad_purity = 0;
  long bad_throws = 0;
  long regions = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int n : kSizes) {
      ++regions;
      const bool serial = (round + n) % 7 == 0;
      const bool throwing = round % 10 == 3 && n >= 16;
      const bool nest = round % 5 == 1;
      // Consecutive regions alternate purity-region names, so a worker
      // that picked up the previous or next region's token is caught.
      [[maybe_unused]] const char* name =
          regions % 2 == 0 ? "pool-stress-even" : "pool-stress-odd";
      par::set_serial_mode(serial);
      std::atomic<int> context_errors{0};
      std::atomic<int> purity_errors{0};
      const auto body = [&](int i) {
        hits[static_cast<std::size_t>(i)] += 1;
#if EXW_CONTRACT_CHECKS_ENABLED
        if (par::contract::current_rank() != RankId{i}) {
          context_errors.fetch_add(1, std::memory_order_relaxed);
        }
#endif
#if EXW_PURITY_CHECKS_ENABLED
        const auto token = perf::purity::capture();
        if (token.name == nullptr || std::strcmp(token.name, name) != 0) {
          purity_errors.fetch_add(1, std::memory_order_relaxed);
        }
#endif
        if (nest) {
          par::parallel_for(3, [&](int) {
            nested[static_cast<std::size_t>(i)] += 1;
          });
        }
        if (throwing && (i == 3 || i == 7)) {
          throw Error(i == 3 ? "body three" : "body seven");
        }
      };
      try {
#if EXW_PURITY_CHECKS_ENABLED
        perf::purity::ScopedPurityRegion region(name, __FILE__, __LINE__);
#endif
        par::parallel_for(n, body);
        if (throwing) ++bad_throws;  // must have thrown
      } catch (const Error& e) {
        // The lowest-numbered throwing body wins, as in the serial loop.
        if (!throwing || std::string(e.what()).find("body three") ==
                             std::string::npos) {
          ++bad_throws;
        }
      }
      for (int i = 0; i < 97; ++i) {
        const int want = i < n ? 1 : 0;
        if (hits[static_cast<std::size_t>(i)] != want ||
            nested[static_cast<std::size_t>(i)] != (nest ? 3 * want : 0)) {
          ++bad_counts;
        }
        hits[static_cast<std::size_t>(i)] = 0;
        nested[static_cast<std::size_t>(i)] = 0;
      }
      bad_context += context_errors.load();
      bad_purity += purity_errors.load();
    }
  }
  par::set_serial_mode(false);
  perf::purity::set_fatal(fatal);
  EXPECT_EQ(bad_counts, 0) << "a body ran zero or several times";
  EXPECT_EQ(bad_context, 0) << "a body ran outside its rank context";
  EXPECT_EQ(bad_purity, 0) << "a worker inherited another region's token";
  EXPECT_EQ(bad_throws, 0) << "wrong or missing rethrow";
}

TEST(Tracer, PoolMessageHalvesMatchChargingEveryOpenPhase) {
  // Sends and receives made on pool threads inside three nested phases,
  // with self-messages and a phase reopened by name. Each phase must
  // read what the old per-message charge to every open phase gave: for
  // every message, both endpoints (once for a self-message) and the
  // count, in the phase it was sent in and all of that phase's
  // ancestors.
  const int nranks = 6;
  par::Runtime rt(nranks);
  auto& tr = rt.tracer();
  struct Want {
    std::vector<long> msgs;
    std::vector<double> bytes;
    long messages = 0;
  };
  std::map<std::string, Want> want;
  for (const char* name : {"", "a", "a/b", "a/b/c", "a/d"}) {
    want[name] = Want{std::vector<long>(nranks, 0),
                      std::vector<double>(nranks, 0.0), 0};
  }
  // One round of a ring (r -> r+k) plus a self-message per rank, charged
  // as the old tracer did, to every phase in `open`.
  const auto ring = [&](int k, const std::vector<std::string>& open) {
    rt.parallel_for_ranks([&](RankId r) {
      const std::vector<int> payload(static_cast<std::size_t>(k), 1);
      rt.transport().send<int>(r, RankId{(r.value() + k) % nranks},
                               par::tags::kTestRing, payload);
      rt.transport().send<int>(r, r, par::tags::kTestSelf, {1, 2});
    });
    rt.parallel_for_ranks([&](RankId r) {
      (void)rt.transport().recv<int>(
          r, RankId{(r.value() + nranks - k) % nranks}, par::tags::kTestRing);
      (void)rt.transport().recv<int>(r, r, par::tags::kTestSelf);
    });
    for (const auto& name : open) {
      auto& w = want[name];
      // The ring message is a self-message too when k wraps around.
      const bool self = k % nranks == 0;
      const double ring_bytes = static_cast<double>(k) * sizeof(int);
      for (std::size_t r = 0; r < static_cast<std::size_t>(nranks); ++r) {
        w.msgs[r] += self ? 2 : 3;
        w.bytes[r] += 2 * sizeof(int) + (self ? 1.0 : 2.0) * ring_bytes;
      }
      w.messages += 2 * nranks;
    }
  };
  ring(1, {""});
  tr.push_phase("a");
  ring(2, {"", "a"});
  tr.push_phase("b");
  ring(3, {"", "a", "a/b"});
  tr.push_phase("c");
  ring(1, {"", "a", "a/b", "a/b/c"});
  ring(nranks, {"", "a", "a/b", "a/b/c"});  // k = nranks: all self
  // Reading a still-open phase: the innermost reads its own charges;
  // an ancestor misses those of its still-open sub-phases.
  EXPECT_EQ(tr.phase("a/b/c").messages, want["a/b/c"].messages);
  EXPECT_EQ(tr.phase("a/b").messages, 2 * nranks);
  EXPECT_EQ(tr.phase("a").messages, 2 * nranks);
  tr.pop_phase();
  EXPECT_EQ(tr.phase("a/b").messages, want["a/b"].messages);
  tr.pop_phase();
  tr.push_phase("d");
  ring(4, {"", "a", "a/d"});
  tr.pop_phase();
  tr.push_phase("b");  // reopened by name: charges its first entry
  tr.push_phase("c");
  ring(5, {"", "a", "a/b", "a/b/c"});
  tr.pop_phase();
  tr.pop_phase();
  tr.pop_phase();
  for (const auto& [name, w] : want) {
    const auto& s = tr.phase(name);
    EXPECT_EQ(s.messages, w.messages) << "phase '" << name << "'";
    EXPECT_EQ(s.total_messages(), w.messages) << "phase '" << name << "'";
    for (int r = 0; r < nranks; ++r) {
      const auto ru = static_cast<std::size_t>(r);
      EXPECT_EQ(s.rank[ru].msgs, w.msgs[ru])
          << "phase '" << name << "' rank " << r;
      EXPECT_DOUBLE_EQ(s.rank[ru].msg_bytes, w.bytes[ru])
          << "phase '" << name << "' rank " << r;
    }
  }
  EXPECT_TRUE(rt.transport().drained());
}

TEST(Tracer, BatchedChannelChargesMatchPerMessageCharges) {
  // The same channel traffic charged twice: per kernel and per message
  // (kernel_split_prec, message_sent / message_received), and batched
  // per rank body (a perf::Tally through Runtime::channel_sent /
  // channel_received and Tracer::charge_sent / charge_received, one
  // stamp per exchange). Every rank sends to two neighbours and itself,
  // with a pack kernel per message on the sending side and an add kernel
  // per message on the receiving side, in a sub-phase that is popped and
  // reopened and in its parent. Every per-rank field and every phase's
  // message count must agree.
  const int nranks = 5;
  par::Runtime per_msg(nranks), batched(nranks);
  const auto dsts = [&](int r) {
    return std::array<int, 3>{(r + 1) % nranks, (r + 2) % nranks, r};
  };
  const auto count = [](int src, int dst) {
    return static_cast<std::size_t>(3 + 2 * src + dst);
  };
  // One exchange on both runtimes, in whatever phase is open.
  const auto exchange = [&] {
    std::vector<perf::MessageStamp> stamps(nranks * nranks);
    auto& t1 = per_msg.tracer();
    per_msg.parallel_for_ranks([&](RankId r) {
      for (const int d : dsts(r.value())) {
        const auto n = static_cast<double>(count(r.value(), d));
        t1.kernel_split_prec(r, 0.0, 16.0 * n, 0.0, 4.0 * n);
        stamps[static_cast<std::size_t>(d * nranks) + r.value()] =
            t1.message_sent(r, RankId{d}, 8.0 * n);
      }
    });
    per_msg.parallel_for_ranks([&](RankId r) {
      for (int src = 0; src < nranks; ++src) {
        for (const int d : dsts(src)) {
          if (d != r.value()) continue;
          const auto n = static_cast<double>(count(src, d));
          t1.message_received(r, RankId{src}, 8.0 * n,
                              stamps[static_cast<std::size_t>(d * nranks) + src]);
          t1.kernel_split_prec(r, n, 0.0, 24.0 * n, 0.0);
        }
      }
    });
    auto& t2 = batched.tracer();
    const perf::MessageStamp stamp = t2.stamp();
    batched.parallel_for_ranks([&](RankId r) {
      perf::Tally tally;
      for (const int d : dsts(r.value())) {
        const std::size_t n = count(r.value(), d);
        tally.kernel(0.0, 16.0 * static_cast<double>(n), 0.0,
                     4.0 * static_cast<double>(n));
        batched.channel_sent(r, RankId{d}, par::tags::kTestRing, n, 8 * n,
                             tally, "test send");
      }
      t2.charge_sent(r, tally);
    });
    batched.parallel_for_ranks([&](RankId r) {
      perf::Tally tally;
      for (int src = 0; src < nranks; ++src) {
        for (const int d : dsts(src)) {
          if (d != r.value()) continue;
          const std::size_t n = count(src, d);
          batched.channel_received(r, RankId{src}, par::tags::kTestRing, n,
                                   8 * n, stamp, tally, "test receive");
          tally.kernel(static_cast<double>(n), 0.0,
                       24.0 * static_cast<double>(n));
        }
      }
      t2.charge_received(r, tally, stamp);
    });
  };
  const auto compare = [&](const char* name) {
    const auto& a = per_msg.tracer().phase(name);
    const auto& b = batched.tracer().phase(name);
    EXPECT_GT(a.messages, 0) << "phase '" << name << "'";
    EXPECT_EQ(a.messages, b.messages) << "phase '" << name << "'";
    for (int r = 0; r < nranks; ++r) {
      const auto& x = a.rank[static_cast<std::size_t>(r)];
      const auto& y = b.rank[static_cast<std::size_t>(r)];
      SCOPED_TRACE(testing::Message() << "phase '" << name << "' rank " << r);
      EXPECT_EQ(x.msgs, y.msgs);
      EXPECT_EQ(x.msg_bytes, y.msg_bytes);
      EXPECT_EQ(x.kernels, y.kernels);
      EXPECT_EQ(x.flops, y.flops);
      EXPECT_EQ(x.bytes, y.bytes);
      EXPECT_EQ(x.index_bytes, y.index_bytes);
      EXPECT_EQ(x.value_bytes_f32, y.value_bytes_f32);
    }
  };
  for (par::Runtime* rt : {&per_msg, &batched}) rt->tracer().push_phase("a");
  exchange();
  for (int opening = 0; opening < 2; ++opening) {
    for (par::Runtime* rt : {&per_msg, &batched}) rt->tracer().push_phase("b");
    exchange();
    exchange();
    compare("a/b");
    for (par::Runtime* rt : {&per_msg, &batched}) rt->tracer().pop_phase();
    compare("a/b");  // rolled up into "a" by the pop
    compare("a");
  }
  for (par::Runtime* rt : {&per_msg, &batched}) rt->tracer().pop_phase();
  for (const char* name : {"", "a", "a/b"}) compare(name);
  EXPECT_EQ(per_msg.tracer().phase("").messages, 5 * 3 * nranks);
}

TEST(Tracer, WallClockIsClearedByReset) {
  // Each pop adds the time since its push; reset() clears it, and the
  // root phase, never popped, reads zero.
  perf::Tracer tr(2);
  tr.push_phase("a");
  tr.push_phase("b");
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  tr.pop_phase();
  tr.pop_phase();
  EXPECT_GT(tr.phase("a/b").wall_s, 0.0);
  EXPECT_LE(tr.phase("a/b").wall_s, tr.phase("a").wall_s);
  EXPECT_EQ(tr.phase("").wall_s, 0.0);
  tr.reset();
  EXPECT_EQ(tr.phase("a").wall_s, 0.0);
  EXPECT_EQ(tr.phase("a/b").wall_s, 0.0);
}

TEST(ThreadPool, RegionCounterCountsTopLevelRegionsOnly) {
  // Pool and inline regions count once each; nested calls are part of
  // their enclosing body and an empty region runs nothing.
  auto& pool = par::ThreadPool::instance();
  const std::uint64_t before = pool.regions();
  par::parallel_for(4, [](int) { par::parallel_for(3, [](int) {}); });
  par::parallel_for(1, [](int) {});
  par::parallel_for(0, [](int) {});
  const bool was_serial = par::serial_mode();
  par::set_serial_mode(true);
  par::parallel_for(5, [](int) { par::parallel_for(2, [](int) {}); });
  par::set_serial_mode(was_serial);
  EXPECT_EQ(pool.regions() - before, 3u);
}

TEST(Tracer, MessageRollUpReachesRanksInEveryMaskWord) {
  // 130 ranks span three 64-rank words of the tracer's record of which
  // ranks charged messages in an opening. A few ranks in each word send
  // to their right neighbour inside a nested phase, opened twice; every
  // phase then holds exactly those charges and the other ranks none,
  // whether read open (settled) or after the pops (rolled up).
  const int nranks = 130;
  par::Runtime rt(nranks);
  auto& tr = rt.tracer();
  const auto sends = [](int r) {
    return r == 0 || r == 63 || r == 64 || r == 127 || r == 128 || r == 129;
  };
  const auto ring = [&] {
    rt.parallel_for_ranks([&](RankId r) {
      if (sends(r.value())) {
        rt.transport().send<int>(r, RankId{(r.value() + 1) % nranks},
                                 par::tags::kTestRing, {1});
      }
    });
    rt.parallel_for_ranks([&](RankId r) {
      const int src = (r.value() + nranks - 1) % nranks;
      if (sends(src)) {
        (void)rt.transport().recv<int>(r, RankId{src}, par::tags::kTestRing);
      }
    });
  };
  tr.push_phase("a");
  tr.push_phase("b");
  ring();
  EXPECT_EQ(tr.phase("a/b").messages, 6);
  tr.pop_phase();
  tr.push_phase("b");
  ring();
  tr.pop_phase();
  tr.pop_phase();
  for (const char* name : {"", "a", "a/b"}) {
    const auto& s = tr.phase(name);
    EXPECT_EQ(s.messages, 12) << "phase '" << name << "'";
    for (int r = 0; r < nranks; ++r) {
      const long want =
          2 * ((sends(r) ? 1 : 0) + (sends((r + nranks - 1) % nranks) ? 1 : 0));
      const auto ru = static_cast<std::size_t>(r);
      EXPECT_EQ(s.rank[ru].msgs, want) << "phase '" << name << "' rank " << r;
      EXPECT_DOUBLE_EQ(s.rank[ru].msg_bytes,
                       static_cast<double>(want) * sizeof(int))
          << "phase '" << name << "' rank " << r;
    }
  }
  EXPECT_TRUE(rt.transport().drained());
}

}  // namespace
}  // namespace exw
