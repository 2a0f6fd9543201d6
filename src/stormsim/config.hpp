// Deployment configuration of a topology — the tuned parameter set.
//
// This mirrors Table I of the paper exactly: parallelism hints (one per
// node), max-tasks, batch size, batch parallelism, worker threads, receiver
// threads, and acker count. `normalized_hints` implements the paper's
// max-task normalization: "To ensure that the sum of tasks is smaller than
// max-tasks, we normalized the chosen hints using the max-task parameter"
// (Section V-A).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stormsim/topology.hpp"

namespace stormtune::sim {

struct TopologyConfig {
  /// One hint per topology node. Empty means "1 for every node".
  std::vector<int> parallelism_hints;
  /// Upper bound on the total number of task instances; 0 disables the cap.
  int max_tasks = 0;
  /// Tuples per Trident mini-batch.
  int batch_size = 200;
  /// Maximum number of batches in the processing pipeline concurrently.
  int batch_parallelism = 5;
  /// Executor thread-pool size per worker.
  int worker_threads = 8;
  /// Message-deserialization threads per worker.
  int receiver_threads = 1;
  /// Acker task instances; 0 means the Storm default of one per worker.
  int num_ackers = 0;

  /// Hints after bounds enforcement and max-task normalization: every node
  /// gets at least one task; if the hint sum exceeds max_tasks, hints are
  /// scaled proportionally (floored at 1).
  std::vector<int> normalized_hints(const Topology& topology) const;

  /// Allocation-free variant of normalized_hints() for hot callers: writes
  /// into `hints`, which keeps its capacity across calls.
  void normalized_hints_into(const Topology& topology,
                             std::vector<int>& hints) const;

  /// Effective acker count given the deployment's worker count.
  int effective_ackers(std::size_t num_workers) const;

  /// Throws stormtune::Error when any field is out of its valid domain or
  /// the hint vector length does not match the topology.
  void validate(const Topology& topology) const;

  std::string describe() const;

  bool operator==(const TopologyConfig&) const = default;
};

/// A configuration where every node has the same parallelism hint — the
/// shape explored by the parallel-linear-ascent baseline.
TopologyConfig uniform_hint_config(const Topology& topology, int hint);

}  // namespace stormtune::sim
