#include <gtest/gtest.h>

#include <cmath>

#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "simmpi/trace.h"
#include "util/rng.h"

namespace histpc::simmpi {
namespace {

MachineSpec machine_of(int nranks) {
  return MachineSpec::one_to_one(nranks, "node", "proc");
}

NetworkModel fast_net() {
  NetworkModel net;
  net.latency = 0.001;
  net.bytes_per_second = 1.0e6;  // 1 MB/s: 1 MB message = 1.001 s transfer
  net.eager_limit = 1024;
  return net;
}

ExecutionTrace simulate(const std::function<void(Recorder&)>& body, int nranks,
                        NetworkModel net = fast_net(), MachineSpec machine = {}) {
  if (machine.rank_to_node.empty()) machine = machine_of(nranks);
  ProgramBuilder builder(machine);
  builder.record(body);
  return Simulator(net).run(builder.build());
}

double total_state(const ExecutionTrace& t, int rank, IntervalState s) {
  double sum = 0;
  for (const auto& iv : t.ranks[rank].intervals)
    if (iv.state == s) sum += iv.duration();
  return sum;
}

// ----------------------------------------------------------- machine spec

TEST(MachineSpec, OneToOneLayout) {
  MachineSpec m = MachineSpec::one_to_one(3, "poona", "app", 5);
  EXPECT_EQ(m.num_nodes(), 3);
  EXPECT_EQ(m.num_ranks(), 3);
  EXPECT_EQ(m.node_names[0], "poona05");
  EXPECT_EQ(m.process_names[2], "app:3");
  EXPECT_NO_THROW(m.validate());
}

TEST(MachineSpec, ValidateCatchesBadPlacement) {
  MachineSpec m = machine_of(2);
  m.rank_to_node[1] = 7;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = machine_of(2);
  m.node_speeds[0] = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_THROW(MachineSpec::one_to_one(0, "n", "p"), std::invalid_argument);
}

// --------------------------------------------------------------- recorder

TEST(Recorder, RejectsInvalidArguments) {
  ProgramBuilder b(machine_of(2));
  EXPECT_THROW(b.record([](Recorder& r) { r.compute(-1.0); }), std::invalid_argument);
  EXPECT_THROW(b.record([](Recorder& r) { r.send(5, 0, 10); }), std::invalid_argument);
  EXPECT_THROW(b.record([](Recorder& r) { r.send(r.rank(), 0, 10); }), std::invalid_argument);
  EXPECT_THROW(b.record([](Recorder& r) { r.wait(0); }), std::invalid_argument);
  EXPECT_THROW(b.record([](Recorder& r) { r.func_exit(); }), std::logic_error);
}

TEST(Recorder, DetectsUnbalancedFunctionScopes) {
  ProgramBuilder b(machine_of(1));
  EXPECT_THROW(b.record([](Recorder& r) { r.func_enter("f", "m"); }), std::logic_error);
}

TEST(Recorder, BuilderSingleUse) {
  ProgramBuilder b(machine_of(1));
  b.record([](Recorder& r) { r.compute(1.0); });
  b.build();
  EXPECT_THROW(b.build(), std::logic_error);
  EXPECT_THROW(b.record([](Recorder&) {}), std::logic_error);
}

TEST(Recorder, InternsFunctionsAcrossRanks) {
  ProgramBuilder b(machine_of(2));
  b.record([](Recorder& r) {
    FunctionScope f(r, "work", "mod.f");
    r.compute(1.0);
  });
  SimProgram p = b.build();
  EXPECT_EQ(p.functions.size(), 1u);
  EXPECT_EQ(p.functions[0].function, "work");
  EXPECT_EQ(p.functions[0].module, "mod.f");
}

TEST(Recorder, InterningGoesByNamesNotAddresses) {
  ProgramBuilder b(machine_of(1));
  // One buffer, rewritten in place: the address repeats, the name does not.
  std::string function = "alpha";
  const FuncId alpha = b.intern_function(function, "mod.f");
  function = "bravo";
  const FuncId bravo = b.intern_function(function, "mod.f");
  EXPECT_NE(bravo, alpha);
  EXPECT_NE(b.intern_function(function, "other.f"), bravo);
  function = "alpha";
  EXPECT_EQ(b.intern_function(function, "mod.f"), alpha);
  EXPECT_EQ(b.intern_function("bravo", "mod.f"), bravo);
  EXPECT_EQ(b.build().functions.size(), 3u);
}

// -------------------------------------------------------------- simulator

TEST(Simulator, ComputeScalesWithNodeSpeed) {
  MachineSpec m = machine_of(2);
  m.node_speeds[1] = 2.0;
  ExecutionTrace t = simulate([](Recorder& r) { r.compute(4.0); }, 2, fast_net(), m);
  EXPECT_DOUBLE_EQ(t.ranks[0].end_time, 4.0);
  EXPECT_DOUBLE_EQ(t.ranks[1].end_time, 2.0);
  EXPECT_DOUBLE_EQ(t.duration, 4.0);
}

TEST(Simulator, EagerSendDoesNotBlockSender) {
  // Rank 0 sends a small message and keeps computing; rank 1 receives late.
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.send(1, 0, 100);  // below eager limit
          r.compute(5.0);
        } else {
          r.compute(1.0);
          r.recv(0, 0);
        }
      },
      2);
  EXPECT_DOUBLE_EQ(t.ranks[0].end_time, 5.0);          // no send wait
  EXPECT_NEAR(t.ranks[1].end_time, 1.0, 1e-6);         // message arrived long ago
  EXPECT_NEAR(total_state(t, 1, IntervalState::SyncWait), 0.0, 1e-9);
}

TEST(Simulator, RecvWaitsForArrival) {
  // Rank 1 posts the receive immediately; rank 0 sends after 2s compute.
  const NetworkModel net = fast_net();
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.compute(2.0);
          r.send(1, 7, 100);
        } else {
          r.recv(0, 7);
        }
      },
      2);
  const double expected_arrival = 2.0 + net.transfer_time(100);
  EXPECT_NEAR(t.ranks[1].end_time, expected_arrival, 1e-9);
  EXPECT_NEAR(total_state(t, 1, IntervalState::SyncWait), expected_arrival, 1e-9);
  // The wait interval carries the message's sync object.
  const auto& iv = t.ranks[1].intervals.at(0);
  EXPECT_EQ(iv.state, IntervalState::SyncWait);
  ASSERT_NE(iv.sync_object, kNoSyncObject);
  EXPECT_EQ(t.sync_objects[iv.sync_object], "Message/7");
}

TEST(Simulator, RendezvousSendBlocksUntilRecvPosted) {
  const NetworkModel net = fast_net();
  const std::size_t big = 2 * 1024 * 1024;  // over the eager limit
  ExecutionTrace t = simulate(
      [&](Recorder& r) {
        if (r.rank() == 0) {
          r.send(1, 0, big);
        } else {
          r.compute(3.0);
          r.recv(0, 0);
        }
      },
      2);
  const double transfer_end = 3.0 + net.transfer_time(big);
  EXPECT_NEAR(t.ranks[0].end_time, transfer_end, 1e-9);
  EXPECT_NEAR(total_state(t, 0, IntervalState::SyncWait), transfer_end, 1e-9);
  EXPECT_NEAR(t.ranks[1].end_time, transfer_end, 1e-9);
}

TEST(Simulator, NonblockingOverlapsComputeWithTransfer) {
  const NetworkModel net = fast_net();
  const std::size_t big = 2 * 1024 * 1024;
  ExecutionTrace t = simulate(
      [&](Recorder& r) {
        if (r.rank() == 0) {
          RequestId req = r.isend(1, 0, big);
          r.compute(5.0);  // overlaps the transfer
          r.wait(req);
        } else {
          RequestId req = r.irecv(0, 0);
          r.compute(5.0);
          r.wait(req);
        }
      },
      2);
  // Transfer (about 2.1s) completes under the 5s compute on both sides.
  EXPECT_NEAR(t.ranks[0].end_time, 5.0, 1e-6);
  EXPECT_NEAR(t.ranks[1].end_time, 5.0, 1e-6);
  EXPECT_NEAR(total_state(t, 0, IntervalState::SyncWait), 0.0, 1e-9);
  (void)net;
}

TEST(Simulator, MessagesDoNotOvertakeWithinChannel) {
  // Two sends on the same channel must match receives in order; the recv
  // loop measures both and the second cannot complete before the first.
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.send(1, 0, 100);
          r.compute(2.0);
          r.send(1, 0, 100);
        } else {
          r.recv(0, 0);      // gets the first message quickly
          r.recv(0, 0);      // must wait for the second
        }
      },
      2);
  // Second recv waits for the send posted at t=2.
  EXPECT_GT(t.ranks[1].end_time, 2.0);
}

TEST(Simulator, BarrierReleasesAllAtLatestArrival) {
  const NetworkModel net = fast_net();
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        r.compute(1.0 * (r.rank() + 1));  // arrivals at 1, 2, 3
        r.barrier();
      },
      3);
  const double release = 3.0 + net.collective_cost(3, 0);
  for (int rank = 0; rank < 3; ++rank) EXPECT_NEAR(t.ranks[rank].end_time, release, 1e-9);
  EXPECT_NEAR(total_state(t, 0, IntervalState::SyncWait), release - 1.0, 1e-9);
  EXPECT_NEAR(total_state(t, 2, IntervalState::SyncWait), release - 3.0, 1e-9);
}

TEST(Simulator, AllreduceCostGrowsWithBytes) {
  const NetworkModel net = fast_net();
  EXPECT_GT(net.collective_cost(4, 1 << 20), net.collective_cost(4, 0));
  EXPECT_DOUBLE_EQ(net.collective_cost(1, 1 << 20), 0.0);
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        r.compute(1.0);
        r.allreduce(1 << 20);
      },
      4);
  EXPECT_NEAR(t.duration, 1.0 + net.collective_cost(4, 1 << 20), 1e-9);
  // Sync object is the collective.
  bool found = false;
  for (const auto& iv : t.ranks[0].intervals)
    if (iv.state == IntervalState::SyncWait && iv.sync_object != kNoSyncObject &&
        t.sync_objects[iv.sync_object] == "Collective/Allreduce")
      found = true;
  EXPECT_TRUE(found);
}

TEST(Simulator, GatherAndAlltoallScaleLinearly) {
  const NetworkModel net = fast_net();
  auto run_with = [&](auto op) {
    return simulate(
        [&](Recorder& r) {
          r.compute(1.0);
          op(r);
        },
        4);
  };
  const ExecutionTrace bcast = run_with([](Recorder& r) { r.bcast(1 << 20); });
  const ExecutionTrace gather = run_with([](Recorder& r) { r.gather(1 << 20); });
  const ExecutionTrace alltoall = run_with([](Recorder& r) { r.alltoall(1 << 20); });
  // Tree-shaped bcast costs log2(4)=2 rounds; gather/alltoall pay N-1=3
  // transfers.
  EXPECT_NEAR(bcast.duration, 1.0 + 2 * net.transfer_time(1 << 20), 1e-9);
  EXPECT_NEAR(gather.duration, 1.0 + 3 * net.transfer_time(1 << 20), 1e-9);
  EXPECT_DOUBLE_EQ(gather.duration, alltoall.duration);
  // Each carries its own sync object.
  bool found = false;
  for (const auto& name : gather.sync_objects)
    if (name == "Collective/Gather") found = true;
  EXPECT_TRUE(found);
}

TEST(Simulator, CollectiveKindMismatchThrows) {
  EXPECT_THROW(simulate(
                   [](Recorder& r) {
                     if (r.rank() == 0) r.barrier();
                     else r.allreduce(8);
                   },
                   2),
               std::logic_error);
}

TEST(Simulator, DeadlockIsDetected) {
  // Both ranks receive first: no message can ever arrive.
  EXPECT_THROW(simulate(
                   [](Recorder& r) {
                     r.recv(1 - r.rank(), 0);
                     r.send(1 - r.rank(), 0, 10);
                   },
                   2),
               std::runtime_error);
}

TEST(Simulator, MutualRendezvousSendsDeadlock) {
  EXPECT_THROW(simulate(
                   [](Recorder& r) {
                     r.send(1 - r.rank(), 0, 2 * 1024 * 1024);
                     r.recv(1 - r.rank(), 0);
                   },
                   2),
               std::runtime_error);
}

TEST(Simulator, WaitingTwiceOnARequestThrows) {
  EXPECT_THROW(simulate(
                   [](Recorder& r) {
                     if (r.rank() == 0) {
                       RequestId q = r.irecv(1, 0);
                       r.wait(q);
                       r.wait(q);
                     } else {
                       r.send(0, 0, 10);
                       r.send(0, 0, 10);
                     }
                   },
                   2),
               std::logic_error);
}

TEST(Simulator, WaitallCoversOutstandingRequests) {
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.irecv(1, 0);
          r.irecv(1, 1);
          r.waitall();
        } else {
          r.compute(1.0);
          r.send(0, 0, 10);
          r.compute(1.0);
          r.send(0, 1, 10);
        }
      },
      2);
  EXPECT_GT(t.ranks[0].end_time, 2.0);  // waited for the later message
  // The dominant wait is attributed to tag 1 (the last to arrive).
  const auto& iv = t.ranks[0].intervals.at(0);
  EXPECT_EQ(iv.state, IntervalState::SyncWait);
  EXPECT_EQ(t.sync_objects[iv.sync_object], "Message/1");
}

TEST(Simulator, WildcardPairReceivesAllMessagesByLastArrival) {
  // Two senders with different finish times; the master's two wildcard
  // receives consume both messages, and the master is done exactly when
  // the last message arrives — regardless of pairing order.
  const NetworkModel net = fast_net();
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.recv(kAnySource, 5);
          r.recv(kAnySource, 5);
        } else if (r.rank() == 1) {
          r.compute(3.0);
          r.send(0, 5, 100);
        } else {
          r.compute(1.0);
          r.send(0, 5, 100);
        }
      },
      3);
  EXPECT_NEAR(t.ranks[0].end_time, 3.0 + net.transfer_time(100), 1e-9);
  EXPECT_NEAR(total_state(t, 0, IntervalState::SyncWait), t.ranks[0].end_time, 1e-9);
}

TEST(Simulator, WildcardSelectsEarliestPostedPendingSend) {
  // Rank 0 parks on a specific receive first, so both rendezvous sends are
  // pending when its wildcards post: the first wildcard must take rank 2's
  // earlier send (1 MB, t=1), the second rank 1's (2 MB, t=3).
  const NetworkModel net = fast_net();
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.recv(1, 0);  // parks rank 0 so the others run ahead
          r.recv(kAnySource, 5);
          r.recv(kAnySource, 5);
        } else if (r.rank() == 1) {
          r.send(0, 0, 64);
          r.compute(3.0);
          r.send(0, 5, 2 * 1024 * 1024);
        } else {
          r.compute(1.0);
          r.send(0, 5, 1 * 1024 * 1024);
        }
      },
      3);
  const auto& ivs = t.ranks[0].intervals;
  ASSERT_GE(ivs.size(), 2u);
  const auto& second_to_last = ivs[ivs.size() - 2];
  const auto& last = ivs[ivs.size() - 1];
  EXPECT_NEAR(second_to_last.t1, 1.0 + net.transfer_time(1024 * 1024), 1e-6);
  EXPECT_NEAR(last.t1, 3.0 + net.transfer_time(2 * 1024 * 1024), 1e-6);
}

TEST(Simulator, WildcardTieBreaksByLowestSourceRank) {
  // Both workers send at exactly t=0; the wildcard drains rank 1 first.
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.recv(kAnySource, 0);
          r.compute(10.0);          // ensure the second send sits unmatched
          r.recv(2, 0);             // must still find rank 2's message
        } else {
          r.send(0, 0, 100);
        }
      },
      3);
  EXPECT_NO_THROW(t.validate());
  EXPECT_GT(t.ranks[0].end_time, 10.0);
}

TEST(Simulator, WildcardQueuedBeforeAnySend) {
  const NetworkModel net = fast_net();
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.recv(kAnySource, 9);  // posted long before any send exists
        } else if (r.rank() == 1) {
          r.compute(2.0);
          r.send(0, 9, 100);
        }
      },
      2);
  EXPECT_NEAR(t.ranks[0].end_time, 2.0 + net.transfer_time(100), 1e-9);
  EXPECT_NEAR(total_state(t, 0, IntervalState::SyncWait), t.ranks[0].end_time, 1e-9);
}

TEST(Simulator, SpecificRecvTakesPriorityOverWildcard) {
  // A specific receive posted on the channel consumes the send even though
  // a wildcard was queued earlier on another rank... (same rank here: the
  // wildcard waits for the *second* send).
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          RequestId wild = r.irecv(kAnySource, 3);
          r.recv(1, 3);  // matches the first message
          r.wait(wild);  // completes with the second
        } else {
          r.compute(1.0);
          r.send(0, 3, 100);
          r.compute(4.0);
          r.send(0, 3, 100);
        }
      },
      2);
  EXPECT_GT(t.ranks[0].end_time, 5.0);  // waited for the second send
}

TEST(Simulator, WildcardSendersCannotUseAnySource) {
  ProgramBuilder b(machine_of(2));
  EXPECT_THROW(b.record([](Recorder& r) { r.send(kAnySource, 0, 10); }),
               std::invalid_argument);
  EXPECT_THROW(b.record([](Recorder& r) { r.isend(kAnySource, 0, 10); }),
               std::invalid_argument);
}

TEST(Simulator, UnmatchedWildcardDeadlocks) {
  EXPECT_THROW(simulate(
                   [](Recorder& r) {
                     if (r.rank() == 0) r.recv(kAnySource, 0);
                     else r.compute(1.0);
                   },
                   2),
               std::runtime_error);
}

TEST(Simulator, IoIsAttributedAsIoWait) {
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        FunctionScope f(r, "checkpoint", "io.c");
        r.io(2.5);
      },
      1);
  EXPECT_DOUBLE_EQ(total_state(t, 0, IntervalState::IoWait), 2.5);
  EXPECT_EQ(t.ranks[0].intervals.at(0).func, 0);
}

TEST(Simulator, FunctionAttributionIsInnermost) {
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        FunctionScope outer(r, "main", "main.c");
        r.compute(1.0);
        {
          FunctionScope inner(r, "kernel", "kern.c");
          r.compute(2.0);
        }
        r.compute(0.5);
      },
      1);
  ASSERT_EQ(t.ranks[0].intervals.size(), 3u);
  EXPECT_EQ(t.functions[t.ranks[0].intervals[0].func].function, "main");
  EXPECT_EQ(t.functions[t.ranks[0].intervals[1].func].function, "kernel");
  EXPECT_EQ(t.functions[t.ranks[0].intervals[2].func].function, "main");
}

TEST(Simulator, CommTagNamedSyncObjects) {
  ExecutionTrace t = simulate(
      [](Recorder& r) {
        if (r.rank() == 0) {
          r.compute(1.0);
          r.send(1, -1, 10, 3);
        } else {
          r.recv(0, -1, 3);
        }
      },
      2);
  bool found = false;
  for (const auto& name : t.sync_objects)
    if (name == "Message/3:-1") found = true;
  EXPECT_TRUE(found);
}

TEST(Simulator, EmptyProgramRejected) {
  SimProgram p;
  EXPECT_THROW(Simulator().run(p), std::invalid_argument);
}

TEST(Trace, SummaryMentionsEveryRank) {
  ExecutionTrace t = simulate([](Recorder& r) { r.compute(1.0); }, 3);
  std::string s = t.summary();
  for (int rank = 0; rank < 3; ++rank)
    EXPECT_NE(s.find("rank " + std::to_string(rank)), std::string::npos);
}

// ----------------------------------------------------------------- jitter

TEST(Jitter, ZeroJitterIsExact) {
  ProgramBuilder a(machine_of(1)), b(machine_of(1), {0.0, 99});
  auto body = [](Recorder& r) { r.compute(2.0); };
  a.record(body);
  b.record(body);
  EXPECT_DOUBLE_EQ(a.build().procs[0].ops[0].seconds, 2.0);
  EXPECT_DOUBLE_EQ(b.build().procs[0].ops[0].seconds, 2.0);
}

TEST(Jitter, SeededJitterIsReproducibleAndBounded) {
  auto record_durations = [](std::uint64_t seed) {
    ProgramBuilder b(machine_of(1), {0.05, seed});
    b.record([](Recorder& r) {
      for (int i = 0; i < 200; ++i) r.compute(1.0);
    });
    const SimProgram program = b.build();
    std::vector<double> out;
    for (const Op& op : program.procs[0].ops) out.push_back(op.seconds);
    return out;
  };
  const auto a = record_durations(7);
  const auto b = record_durations(7);
  const auto c = record_durations(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  double sum = 0;
  for (double d : a) {
    EXPECT_GT(d, 0.0);
    EXPECT_NEAR(d, 1.0, 0.3);  // 5% sigma: 6-sigma bound with slack
    sum += d;
  }
  EXPECT_NEAR(sum / a.size(), 1.0, 0.02);
}

TEST(Jitter, InvalidJitterRejected) {
  EXPECT_THROW(ProgramBuilder(machine_of(1), {-0.1, 0}), std::invalid_argument);
  EXPECT_THROW(ProgramBuilder(machine_of(1), {0.9, 0}), std::invalid_argument);
}

// --------------------------------------------- property: random programs

struct RandomProgramParam {
  std::uint64_t seed;
  int nranks;
};

class RandomProgramTest : public testing::TestWithParam<RandomProgramParam> {};

/// Generate a random but deadlock-free SPMD program: rounds of imbalanced
/// compute followed by nonblocking ring exchanges and occasional
/// collectives.
SimProgram random_program(std::uint64_t seed, int nranks) {
  util::Rng shape_rng(seed);
  const int rounds = 3 + static_cast<int>(shape_rng.next_below(15));
  std::vector<double> work(nranks);
  std::vector<std::size_t> bytes(rounds);
  std::vector<int> kind(rounds);
  for (auto& w : work) w = shape_rng.uniform(0.05, 1.0);
  for (int i = 0; i < rounds; ++i) {
    bytes[i] = 64 + shape_rng.next_below(4 * 1024 * 1024);
    kind[i] = static_cast<int>(shape_rng.next_below(3));
  }
  ProgramBuilder builder(machine_of(nranks));
  builder.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < rounds; ++i) {
      {
        FunctionScope fw(r, "work", "work.c");
        r.compute(work[r.rank()] * (1.0 + i % 3));
      }
      switch (kind[i]) {
        case 0: {  // ring exchange
          const int next = (r.rank() + 1) % r.size();
          const int prev = (r.rank() + r.size() - 1) % r.size();
          RequestId req = r.irecv(prev, i);
          r.send(next, i, bytes[i]);
          r.wait(req);
          break;
        }
        case 1:
          r.barrier();
          break;
        case 2:
          r.allreduce(bytes[i] % 4096);
          break;
      }
    }
  });
  return builder.build();
}

TEST_P(RandomProgramTest, TraceInvariantsHold) {
  const auto param = GetParam();
  SimProgram p = random_program(param.seed, param.nranks);
  ExecutionTrace t = Simulator(fast_net()).run(p);
  // validate() checks monotone non-overlapping intervals and id ranges;
  // run() already calls it, but be explicit.
  EXPECT_NO_THROW(t.validate());
  // Per-rank attributed time never exceeds the rank's end time.
  for (int rank = 0; rank < t.num_ranks(); ++rank) {
    auto totals = t.totals_for_rank(rank);
    EXPECT_LE(totals.total(), t.ranks[rank].end_time + 1e-6);
    EXPECT_GT(t.ranks[rank].end_time, 0.0);
  }
  EXPECT_GT(t.totals().cpu, 0.0);
}

TEST_P(RandomProgramTest, SimulationIsDeterministic) {
  const auto param = GetParam();
  ExecutionTrace a = Simulator(fast_net()).run(random_program(param.seed, param.nranks));
  ExecutionTrace b = Simulator(fast_net()).run(random_program(param.seed, param.nranks));
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  EXPECT_DOUBLE_EQ(a.duration, b.duration);
  for (int rank = 0; rank < a.num_ranks(); ++rank) {
    ASSERT_EQ(a.ranks[rank].intervals.size(), b.ranks[rank].intervals.size());
    for (std::size_t i = 0; i < a.ranks[rank].intervals.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.ranks[rank].intervals[i].t0, b.ranks[rank].intervals[i].t0);
      EXPECT_DOUBLE_EQ(a.ranks[rank].intervals[i].t1, b.ranks[rank].intervals[i].t1);
      EXPECT_EQ(a.ranks[rank].intervals[i].sync_object, b.ranks[rank].intervals[i].sync_object);
    }
  }
}

TEST_P(RandomProgramTest, CollectivesSynchronizeEndTimes) {
  const auto param = GetParam();
  // Append a final barrier: all ranks must then end at the same time.
  SimProgram p = random_program(param.seed, param.nranks);
  for (auto& proc : p.procs) {
    Op op;
    op.kind = OpKind::Barrier;
    proc.ops.push_back(op);
  }
  ExecutionTrace t = Simulator(fast_net()).run(p);
  for (int rank = 1; rank < t.num_ranks(); ++rank)
    EXPECT_NEAR(t.ranks[rank].end_time, t.ranks[0].end_time, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProgramTest,
                         testing::Values(RandomProgramParam{1, 2}, RandomProgramParam{2, 3},
                                         RandomProgramParam{3, 4}, RandomProgramParam{4, 4},
                                         RandomProgramParam{5, 8}, RandomProgramParam{6, 5},
                                         RandomProgramParam{7, 2}, RandomProgramParam{8, 7},
                                         RandomProgramParam{9, 6}, RandomProgramParam{10, 8}),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param.seed) + "_ranks" +
                                  std::to_string(param_info.param.nranks);
                         });

}  // namespace
}  // namespace histpc::simmpi
