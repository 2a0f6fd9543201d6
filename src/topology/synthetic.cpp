#include "topology/synthetic.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace stormtune::topo {

std::string to_string(TopologySize size) {
  switch (size) {
    case TopologySize::kSmall: return "small";
    case TopologySize::kMedium: return "medium";
    case TopologySize::kLarge: return "large";
  }
  return "unknown";
}

graph::GgenParams table2_params(TopologySize size) {
  graph::GgenParams p;
  switch (size) {
    case TopologySize::kSmall:
      p.vertices = 10;
      p.layers = 4;
      p.edge_probability = 0.40;
      break;
    case TopologySize::kMedium:
      p.vertices = 50;
      p.layers = 5;
      p.edge_probability = 0.08;
      break;
    case TopologySize::kLarge:
      p.vertices = 100;
      p.layers = 10;
      p.edge_probability = 0.04;
      break;
  }
  return p;
}

graph::GraphStats table2_paper_stats(TopologySize size) {
  graph::GraphStats s;
  switch (size) {
    case TopologySize::kSmall:
      s = {10, 17, 4, 3, 3, 1.70};
      break;
    case TopologySize::kMedium:
      s = {50, 88, 5, 17, 17, 1.76};
      break;
    case TopologySize::kLarge:
      s = {100, 170, 10, 29, 27, 1.65};
      break;
  }
  return s;
}

std::uint64_t table2_seed(TopologySize size) {
  // Pre-searched with graph::find_seed_matching over seeds [1, 100000] so
  // that edge/source/sink counts track Table II (see `bench_repro table2`).
  switch (size) {
    case TopologySize::kSmall: return 41;
    case TopologySize::kMedium: return 945;
    case TopologySize::kLarge: return 6180;
  }
  return 1;
}

sim::Topology topology_from_dag(const graph::LayeredDag& g,
                                double time_complexity) {
  sim::Topology t;
  const std::size_t n = g.dag.num_vertices();
  const std::vector<std::size_t> sources = g.dag.sources();
  std::vector<bool> is_source(n, false);
  for (std::size_t s : sources) is_source[s] = true;
  for (std::size_t v = 0; v < n; ++v) {
    const std::string name =
        (is_source[v] ? "spout" : "bolt") + std::to_string(v);
    if (is_source[v]) {
      const std::size_t id = t.add_spout(name, time_complexity);
      STORMTUNE_REQUIRE(id == v, "topology_from_dag: id mismatch");
    } else {
      const std::size_t id = t.add_bolt(name, time_complexity);
      STORMTUNE_REQUIRE(id == v, "topology_from_dag: id mismatch");
    }
    // Storm subscriber semantics: every downstream bolt receives the full
    // emission, so per-node load is proportional to the number of
    // source-paths — which is exactly the "base parallelism weight" of
    // Section V-A and what makes the informed strategies effective.
    // (`bench_repro ablation-fanout` explores the split-output alternative.)
    t.node(v).split_output = false;
  }
  // Vertex ids are layer-major, so edges always point to higher ids and
  // can be added in vertex order.
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t w : g.dag.out_edges(v)) {
      t.connect(v, w, sim::Grouping::kShuffle);
    }
  }
  t.validate();
  return t;
}

void apply_time_imbalance(sim::Topology& t, double mean, Rng& rng) {
  STORMTUNE_REQUIRE(mean > 0.0, "apply_time_imbalance: mean must be > 0");
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    t.node(v).time_complexity = rng.uniform(0.0, 2.0 * mean);
  }
}

void apply_contention(sim::Topology& t, double fraction, Rng& rng) {
  STORMTUNE_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                    "apply_contention: fraction must be in [0, 1]");
  if (fraction == 0.0) return;
  double total_units = 0.0;
  std::vector<std::size_t> bolts;
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    total_units += t.node(v).time_complexity;
    if (t.node(v).kind == sim::NodeKind::kBolt) bolts.push_back(v);
  }
  const double target = fraction * total_units;
  // Random order over the bolts; flag greedily until the flagged share of
  // compute units reaches the target (Section IV-B2's unit-based rule).
  const std::vector<std::size_t> perm = rng.permutation(bolts.size());
  double flagged = 0.0;
  for (std::size_t i : perm) {
    if (flagged >= target) break;
    sim::Node& node = t.node(bolts[i]);
    if (node.time_complexity <= 0.0) continue;
    node.contentious = true;
    flagged += node.time_complexity;
  }
}

sim::Topology build_synthetic(const SyntheticSpec& spec) {
  Rng graph_rng(table2_seed(spec.size));
  const graph::LayeredDag g =
      graph::ggen_layer_by_layer(table2_params(spec.size), graph_rng);
  sim::Topology t = topology_from_dag(g, spec.mean_time_complexity);
  Rng workload_rng(spec.workload_seed);
  if (spec.time_imbalance) {
    apply_time_imbalance(t, spec.mean_time_complexity, workload_rng);
  }
  apply_contention(t, spec.contention_fraction, workload_rng);
  return t;
}

sim::SimParams synthetic_sim_params() {
  sim::SimParams p;
  p.compute_unit_ms = 1.0;    // 1 unit ~ 1 ms (Section IV-B1)
  p.tuple_bytes = 512.0;
  p.tuple_memory_bytes = 1024.0;
  p.recv_units_per_tuple = 0.005;
  p.ack_units_per_tuple = 0.002;
  p.commit_units_per_batch = 60.0;
  p.network_latency_ms = 1.0;
  p.duration_s = 120.0;       // two-minute measurement window
  p.throughput_noise_sd = 0.02;
  return p;
}

sim::ClusterSpec paper_cluster() {
  sim::ClusterSpec c;
  c.num_machines = 80;
  c.cores_per_machine = 4;
  c.workers_per_machine = 1;
  c.nic_bytes_per_sec = 128.0 * 1024 * 1024;
  c.memory_soft_bytes = 4.0 * 1024 * 1024 * 1024;
  return c;
}

}  // namespace stormtune::topo
