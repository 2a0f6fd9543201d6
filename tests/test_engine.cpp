#include "stormsim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "stormsim/fluid.hpp"

namespace stormtune::sim {
namespace {

// A linear pipeline S -> B1 -> B2 with uniform 20-unit cost.
Topology pipeline3() {
  Topology t;
  const auto s = t.add_spout("S", 20.0);
  const auto b1 = t.add_bolt("B1", 20.0);
  const auto b2 = t.add_bolt("B2", 20.0);
  t.connect(s, b1);
  t.connect(b1, b2);
  return t;
}

ClusterSpec small_cluster() {
  ClusterSpec c;
  c.num_machines = 8;
  c.cores_per_machine = 4;
  c.workers_per_machine = 1;
  return c;
}

SimParams fast_params() {
  SimParams p;
  p.duration_s = 20.0;
  p.throughput_noise_sd = 0.0;
  p.commit_units_per_batch = 10.0;
  return p;
}

TopologyConfig base_config(const Topology& t, int hint) {
  TopologyConfig c = uniform_hint_config(t, hint);
  c.batch_size = 50;
  c.batch_parallelism = 4;
  return c;
}

TEST(Engine, DeterministicForSameSeed) {
  const Topology t = pipeline3();
  const auto a = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 99);
  const auto b = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 99);
  EXPECT_DOUBLE_EQ(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
  EXPECT_EQ(a.batches_committed, b.batches_committed);
}

TEST(Engine, ProducesPositiveThroughput) {
  const Topology t = pipeline3();
  const auto r = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 1);
  EXPECT_GT(r.throughput_tuples_per_s, 0.0);
  EXPECT_GT(r.batches_committed, 0u);
  EXPECT_GT(r.mean_batch_latency_ms, 0.0);
  EXPECT_FALSE(r.crashed);
}

TEST(Engine, ThroughputEqualsCommittedTuplesOverWindow) {
  const Topology t = pipeline3();
  SimParams p = fast_params();
  const auto r = simulate(t, base_config(t, 2), small_cluster(), p, 1);
  EXPECT_DOUBLE_EQ(r.noiseless_throughput,
                   r.tuples_committed / p.duration_s);
  EXPECT_DOUBLE_EQ(r.tuples_committed,
                   static_cast<double>(r.batches_committed) * 50.0);
}

TEST(Engine, EmittedAtLeastCommitted) {
  const Topology t = pipeline3();
  const auto r = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 1);
  EXPECT_GE(r.batches_emitted, r.batches_committed);
  // Conservation: emitted - committed is bounded by the pipeline depth.
  EXPECT_LE(r.batches_emitted - r.batches_committed, 4u);
}

TEST(Engine, ParallelismImprovesCpuBoundTopology) {
  const Topology t = pipeline3();
  double prev = 0.0;
  for (int hint : {1, 2, 4}) {
    const auto r = simulate(t, base_config(t, hint), small_cluster(),
                            fast_params(), 1);
    EXPECT_GT(r.throughput_tuples_per_s, prev);
    prev = r.throughput_tuples_per_s;
  }
}

TEST(Engine, ContentionNegatesParallelism) {
  // Section IV-B2: a contentious bolt's per-tuple cost scales with its task
  // count, so parallelism must not improve throughput.
  Topology t;
  const auto s = t.add_spout("S", 5.0);
  const auto b = t.add_bolt("B", 40.0, /*contentious=*/true);
  t.connect(s, b);
  const auto r1 = simulate(t, base_config(t, 1), small_cluster(),
                           fast_params(), 1);
  const auto r8 = simulate(t, base_config(t, 8), small_cluster(),
                           fast_params(), 1);
  EXPECT_LE(r8.noiseless_throughput, r1.noiseless_throughput * 1.10);
  // And it burns more CPU for nothing.
  EXPECT_GT(r8.cpu_utilization, r1.cpu_utilization * 1.5);
}

TEST(Engine, BatchParallelismOneSerializesPipeline) {
  const Topology t = pipeline3();
  TopologyConfig c1 = base_config(t, 2);
  c1.batch_parallelism = 1;
  TopologyConfig c4 = base_config(t, 2);
  c4.batch_parallelism = 4;
  const auto r1 = simulate(t, c1, small_cluster(), fast_params(), 1);
  const auto r4 = simulate(t, c4, small_cluster(), fast_params(), 1);
  EXPECT_GT(r4.noiseless_throughput, r1.noiseless_throughput * 1.5);
}

TEST(Engine, LargerBatchesAmortizeCommitOverhead) {
  const Topology t = pipeline3();
  SimParams p = fast_params();
  p.commit_units_per_batch = 200.0;  // heavy serial commit stage
  TopologyConfig small_batches = base_config(t, 4);
  small_batches.batch_size = 20;
  TopologyConfig big_batches = base_config(t, 4);
  big_batches.batch_size = 200;
  const auto rs = simulate(t, small_batches, small_cluster(), p, 1);
  const auto rb = simulate(t, big_batches, small_cluster(), p, 1);
  EXPECT_GT(rb.noiseless_throughput, rs.noiseless_throughput * 1.5);
}

TEST(Engine, SerialCommitCapsBatchRate) {
  const Topology t = pipeline3();
  SimParams p = fast_params();
  p.commit_units_per_batch = 100.0;  // 100 ms serial -> <= 10 batches/s
  TopologyConfig c = base_config(t, 8);
  c.batch_parallelism = 16;
  const auto r = simulate(t, c, small_cluster(), p, 1);
  const double batches_per_s =
      static_cast<double>(r.batches_committed) / p.duration_s;
  EXPECT_LE(batches_per_s, 10.5);
}

TEST(Engine, DesStaysWithinFluidBound) {
  // The fluid estimate is an optimistic bound; the DES must not beat it by
  // more than numerical slack, across several configurations.
  const Topology t = pipeline3();
  for (int hint : {1, 2, 4, 8}) {
    for (int bp : {1, 4}) {
      TopologyConfig c = base_config(t, hint);
      c.batch_parallelism = bp;
      const auto des = simulate(t, c, small_cluster(), fast_params(), 1);
      const auto fluid =
          fluid_estimate(t, c, small_cluster(), fast_params());
      EXPECT_LE(des.noiseless_throughput,
                fluid.throughput_tuples_per_s * 1.05)
          << "hint=" << hint << " bp=" << bp;
    }
  }
}

TEST(Engine, OversizedDeploymentCrashesWithZero) {
  const Topology t = pipeline3();
  TopologyConfig c = base_config(t, 5000);  // absurd parallelism
  SimParams p = fast_params();
  p.task_memory_bytes = 256.0 * 1024 * 1024;
  ClusterSpec cluster = small_cluster();
  cluster.memory_soft_bytes = 1024.0 * 1024 * 1024;
  const auto r = simulate(t, c, cluster, p, 1);
  EXPECT_TRUE(r.crashed);
  EXPECT_DOUBLE_EQ(r.throughput_tuples_per_s, 0.0);
  EXPECT_EQ(r.batches_committed, 0u);
}

TEST(Engine, MemoryPressureSlowsOversizedBatches) {
  const Topology t = pipeline3();
  ClusterSpec cluster = small_cluster();
  cluster.memory_soft_bytes = 2.0 * 1024 * 1024;  // tiny budget
  SimParams p = fast_params();
  p.tuple_memory_bytes = 8192.0;
  p.task_memory_bytes = 0.0;          // isolate batch-data pressure
  p.memory_hard_multiple = 1000.0;    // pressure, not an OOM crash
  TopologyConfig modest = base_config(t, 4);
  modest.batch_size = 20;
  TopologyConfig huge = base_config(t, 4);
  huge.batch_size = 2000;
  huge.batch_parallelism = 8;
  const auto rm = simulate(t, modest, cluster, p, 1);
  const auto rh = simulate(t, huge, cluster, p, 1);
  // Tuples/s under pressure falls below the pressure-free small-batch rate
  // even though the huge config carries 100x more tuples per batch.
  EXPECT_LT(rh.noiseless_throughput, rm.noiseless_throughput * 40.0);
  EXPECT_FALSE(rh.crashed);
  if (rh.batches_committed > 0) {
    EXPECT_GT(rh.mean_batch_latency_ms, rm.mean_batch_latency_ms);
  } else {
    // Pressure so severe that nothing commits inside the window — the
    // "zero performance" outcome the optimizers must learn to avoid.
    EXPECT_DOUBLE_EQ(rh.noiseless_throughput, 0.0);
  }
}

TEST(Engine, NetworkAccountingPositiveAndUnsaturated) {
  const Topology t = pipeline3();
  const auto r = simulate(t, base_config(t, 4), small_cluster(),
                          fast_params(), 1);
  EXPECT_GT(r.network_bytes_per_s_per_worker, 0.0);
  EXPECT_GE(r.peak_nic_utilization, 0.0);
  EXPECT_LT(r.peak_nic_utilization, 1.0);  // paper: never saturated
}

TEST(Engine, SingleMachineHasNoNetworkTraffic) {
  const Topology t = pipeline3();
  ClusterSpec c = small_cluster();
  c.num_machines = 1;
  const auto r = simulate(t, base_config(t, 2), c, fast_params(), 1);
  EXPECT_DOUBLE_EQ(r.network_bytes_per_s_per_worker, 0.0);
  EXPECT_GT(r.throughput_tuples_per_s, 0.0);
}

TEST(Engine, NoiseChangesAcrossSeedsOnly) {
  const Topology t = pipeline3();
  SimParams p = fast_params();
  p.throughput_noise_sd = 0.05;
  const auto a = simulate(t, base_config(t, 2), small_cluster(), p, 1);
  const auto b = simulate(t, base_config(t, 2), small_cluster(), p, 2);
  EXPECT_DOUBLE_EQ(a.noiseless_throughput, b.noiseless_throughput);
  EXPECT_NE(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
}

TEST(Engine, BackgroundLoadReducesThroughput) {
  const Topology t = pipeline3();
  SimParams clean = fast_params();
  SimParams loaded = fast_params();
  loaded.background_load_prob = 1.0;  // every machine slowed
  loaded.background_load_factor = 0.5;
  const auto rc = simulate(t, base_config(t, 2), small_cluster(), clean, 1);
  const auto rl = simulate(t, base_config(t, 2), small_cluster(), loaded, 1);
  EXPECT_LT(rl.noiseless_throughput, rc.noiseless_throughput);
}

TEST(Engine, WorkerThreadLimitThrottles) {
  // Many tasks per worker but a single executor thread: throughput drops
  // versus a generous pool.
  Topology t;
  const auto s = t.add_spout("S", 5.0);
  for (int i = 0; i < 6; ++i) {
    const auto b = t.add_bolt("B" + std::to_string(i), 20.0);
    t.connect(s, b);
  }
  ClusterSpec cluster = small_cluster();
  cluster.num_machines = 2;  // force many tasks per worker
  TopologyConfig narrow = base_config(t, 4);
  narrow.worker_threads = 1;
  TopologyConfig wide = base_config(t, 4);
  wide.worker_threads = 16;
  const auto rn = simulate(t, narrow, cluster, fast_params(), 1);
  const auto rw = simulate(t, wide, cluster, fast_params(), 1);
  EXPECT_GT(rw.noiseless_throughput, rn.noiseless_throughput);
}

TEST(Engine, ReceiverThreadLimitThrottlesHeavyDeserialization) {
  Topology t;
  const auto s = t.add_spout("S", 0.5);
  const auto b = t.add_bolt("B", 0.5);
  t.connect(s, b);
  SimParams p = fast_params();
  p.recv_units_per_tuple = 2.0;  // deserialization dominates
  TopologyConfig one = base_config(t, 4);
  one.receiver_threads = 1;
  TopologyConfig four = base_config(t, 4);
  four.receiver_threads = 4;
  const auto r1 = simulate(t, one, small_cluster(), p, 1);
  const auto r4 = simulate(t, four, small_cluster(), p, 1);
  EXPECT_GT(r4.noiseless_throughput, r1.noiseless_throughput);
}

TEST(Engine, FewAckersBottleneckHeavyAcking) {
  Topology t;
  const auto s = t.add_spout("S", 1.0);
  const auto b = t.add_bolt("B", 1.0);
  t.connect(s, b);
  SimParams p = fast_params();
  p.ack_units_per_tuple = 2.0;  // acker work dominates
  TopologyConfig few = base_config(t, 2);
  few.num_ackers = 1;
  TopologyConfig many = base_config(t, 2);
  many.num_ackers = 16;
  const auto rf = simulate(t, few, small_cluster(), p, 1);
  const auto rm = simulate(t, many, small_cluster(), p, 1);
  EXPECT_GT(rm.noiseless_throughput, rf.noiseless_throughput * 1.3);
}

TEST(Engine, PollingOverheadPunishesOverProvisioning) {
  // Section IV-B2's "waste resources on context switching": per-task
  // polling overhead makes grossly over-parallelized deployments slower
  // than moderately parallel ones even when the extra tasks are idle.
  Topology t;
  const auto s = t.add_spout("S", 5.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  SimParams p = fast_params();
  p.task_poll_cores = 0.05;
  p.task_memory_bytes = 0.0;  // isolate the CPU overhead effect
  ClusterSpec cluster = small_cluster();
  const auto moderate = simulate(t, base_config(t, 8), cluster, p, 1);
  const auto extreme = simulate(t, base_config(t, 300), cluster, p, 1);
  EXPECT_LT(extreme.noiseless_throughput,
            moderate.noiseless_throughput * 0.9);
}

TEST(Engine, ExtremeOverProvisioningReachesZeroPerformance) {
  // The failure mode behind the paper's stop-after-three-zero rule.
  Topology t;
  const auto s = t.add_spout("S", 5.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  SimParams p = fast_params();
  p.task_poll_cores = 0.05;
  p.task_memory_bytes = 0.0;
  ClusterSpec cluster = small_cluster();
  // 8 machines x 4 cores; 4000 tasks -> 500/machine -> 25 cores of
  // polling demand vs 4 available: effectively dead (a tiny residual
  // trickle may still commit; with task memory modeled the same deployment
  // OOMs outright — see OversizedDeploymentCrashesWithZero).
  const auto dead = simulate(t, base_config(t, 2000), cluster, p, 1);
  const auto moderate = simulate(t, base_config(t, 8), cluster, p, 1);
  EXPECT_LT(dead.noiseless_throughput,
            moderate.noiseless_throughput * 0.05);
}

TEST(Engine, TotalTasksReflectsNormalizedHints) {
  const Topology t = pipeline3();
  TopologyConfig c = base_config(t, 10);
  c.max_tasks = 15;
  const auto r = simulate(t, c, small_cluster(), fast_params(), 1);
  EXPECT_LE(r.total_tasks, 15u);
  EXPECT_GE(r.total_tasks, 3u);
}

TEST(Engine, RejectsInvalidConfig) {
  const Topology t = pipeline3();
  TopologyConfig c = base_config(t, 1);
  c.batch_size = 0;
  EXPECT_THROW(simulate(t, c, small_cluster(), fast_params(), 1), Error);
  // A measurement window that is not a finite positive length.
  const TopologyConfig ok = base_config(t, 1);
  for (const double d : {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    SimParams p = fast_params();
    p.duration_s = d;
    try {
      simulate(t, ok, small_cluster(), p, 1);
      FAIL() << "duration_s " << d << " was simulated";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("duration_s"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, ClusterPastTheDepartureKeyLimitIsRefused) {
  // The departure queue packs the machine index (master VM included) into
  // a 16-bit field. One machine more must be a clear error before any
  // event runs, never a wrapped index that misorders departures.
  const Topology t = pipeline3();
  const TopologyConfig c = base_config(t, 1);
  SimParams p = fast_params();
  p.duration_s = 5.0;
  ClusterSpec over = small_cluster();
  over.num_machines = 65536;
  Simulator sim;
  try {
    sim.run(t, c, over, p, 1);
    FAIL() << "an over-limit cluster was simulated";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at most 65535"), std::string::npos)
        << e.what();
  }
  // The refused run leaves the workspace as it was.
  const SimResult after = sim.run(t, c, small_cluster(), p, 1);
  const SimResult fresh = simulate(t, c, small_cluster(), p, 1);
  EXPECT_EQ(after.batches_committed, fresh.batches_committed);
  EXPECT_EQ(after.throughput_tuples_per_s, fresh.throughput_tuples_per_s);

  // At the limit the coordinator's master VM holds the largest index the
  // field carries; its commit departures must still decode to it.
  ClusterSpec at_limit = small_cluster();
  at_limit.num_machines = 65535;
  const SimResult& r = sim.run(t, c, at_limit, p, 1);
  EXPECT_FALSE(r.crashed);
  EXPECT_GT(r.batches_committed, 0u);
}

TEST(Engine, CpuUtilizationWithinBounds) {
  const Topology t = pipeline3();
  for (int hint : {1, 8}) {
    const auto r = simulate(t, base_config(t, hint), small_cluster(),
                            fast_params(), 1);
    EXPECT_GE(r.cpu_utilization, 0.0);
    EXPECT_LE(r.cpu_utilization, 1.0 + 1e-9);
  }
}

TEST(Engine, MultipleWorkersPerMachineShareCores) {
  // Two workers per machine double the worker count but not the CPU; a
  // CPU-bound workload must not get ~2x faster.
  const Topology t = pipeline3();
  ClusterSpec one = small_cluster();
  ClusterSpec two = small_cluster();
  two.workers_per_machine = 2;
  TopologyConfig c = base_config(t, 8);
  const auto r1 = simulate(t, c, one, fast_params(), 1);
  const auto r2 = simulate(t, c, two, fast_params(), 1);
  EXPECT_LT(r2.noiseless_throughput, r1.noiseless_throughput * 1.5);
  EXPECT_GT(r2.noiseless_throughput, 0.0);
}

TEST(Engine, LatencyGrowsWithBatchSize) {
  const Topology t = pipeline3();
  TopologyConfig small_b = base_config(t, 4);
  small_b.batch_size = 20;
  TopologyConfig big_b = base_config(t, 4);
  big_b.batch_size = 200;
  const auto rs = simulate(t, small_b, small_cluster(), fast_params(), 1);
  const auto rb = simulate(t, big_b, small_cluster(), fast_params(), 1);
  EXPECT_GT(rb.mean_batch_latency_ms, rs.mean_batch_latency_ms * 2.0);
}

TEST(Engine, GroupingMetadataDoesNotChangeAggregateFlow) {
  // The engine models all groupings as an even spread over the receiving
  // tasks (shuffle/fields/global/all differ in key placement, which is
  // below this simulator's granularity); aggregate throughput must be
  // identical.
  auto build = [](Grouping g) {
    Topology t;
    const auto s = t.add_spout("S", 10.0);
    const auto b = t.add_bolt("B", 20.0);
    t.connect(s, b, g);
    return t;
  };
  double reference = -1.0;
  for (const Grouping g : {Grouping::kShuffle, Grouping::kFields,
                           Grouping::kGlobal, Grouping::kAll}) {
    const Topology t = build(g);
    const auto r = simulate(t, base_config(t, 4), small_cluster(),
                            fast_params(), 1);
    if (reference < 0.0) {
      reference = r.noiseless_throughput;
    } else {
      EXPECT_DOUBLE_EQ(r.noiseless_throughput, reference);
    }
  }
}

TEST(Engine, ZeroCostNodesFlowThrough) {
  Topology t;
  const auto s = t.add_spout("S", 5.0);
  const auto passthrough = t.add_bolt("pass", 0.0);  // free operator
  const auto b = t.add_bolt("B", 10.0);
  t.connect(s, passthrough);
  t.connect(passthrough, b);
  const auto r = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 1);
  EXPECT_GT(r.noiseless_throughput, 0.0);
}

TEST(Engine, DeepLinearPipelineCompletes) {
  Topology t;
  std::size_t prev = t.add_spout("S", 2.0);
  for (int i = 0; i < 20; ++i) {
    const auto b = t.add_bolt("B" + std::to_string(i), 2.0);
    t.connect(prev, b);
    prev = b;
  }
  TopologyConfig c = base_config(t, 2);
  c.batch_parallelism = 8;  // deep pipelines need depth to stay busy
  const auto r = simulate(t, c, small_cluster(), fast_params(), 1);
  EXPECT_GT(r.batches_committed, 10u);
}

TEST(Engine, WideFanoutTopologyCompletes) {
  Topology t;
  const auto s = t.add_spout("S", 1.0);
  for (int i = 0; i < 30; ++i) {
    t.connect(s, t.add_bolt("B" + std::to_string(i), 5.0));
  }
  const auto r = simulate(t, base_config(t, 2), small_cluster(),
                          fast_params(), 1);
  EXPECT_GT(r.noiseless_throughput, 0.0);
}

// Sweep: throughput is monotone (within tolerance) in batch parallelism for
// a CPU-bound pipeline, across batch sizes.
class BatchParallelismSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchParallelismSweep, MoreInFlightNeverHurtsUnpressured) {
  const auto [batch_size, hint] = GetParam();
  const Topology t = pipeline3();
  double prev = 0.0;
  for (int bp : {1, 2, 4, 8}) {
    TopologyConfig c = base_config(t, hint);
    c.batch_size = batch_size;
    c.batch_parallelism = bp;
    const auto r = simulate(t, c, small_cluster(), fast_params(), 1);
    EXPECT_GE(r.noiseless_throughput, prev * 0.98)
        << "bs=" << batch_size << " hint=" << hint << " bp=" << bp;
    prev = r.noiseless_throughput;
  }
}

INSTANTIATE_TEST_SUITE_P(BsHint, BatchParallelismSweep,
                         ::testing::Combine(::testing::Values(20, 50, 100),
                                            ::testing::Values(1, 4)));

}  // namespace
}  // namespace stormtune::sim
