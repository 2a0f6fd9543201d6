// Task-to-worker placement policies.
//
// Storm's EvenScheduler assigns executors to worker slots round-robin;
// that is the paper's (implicit) deployment and this simulator's default.
// Alternative policies are provided because placement interacts with the
// tuned parameters (a load-aware placement can mask bad parallelism hints,
// a random one can amplify them) — `bench_repro ablation-scheduler` measures it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/topology.hpp"

namespace stormtune::sim {

/// A physical deployment plan: every task instance mapped to a worker.
struct Assignment {
  /// node_tasks[v] lists the task ids of topology node v.
  std::vector<std::vector<std::size_t>> node_tasks;
  /// Acker task ids (system bolt instances).
  std::vector<std::size_t> acker_tasks;
  /// task_worker[t] is the worker hosting task t.
  std::vector<std::size_t> task_worker;

  std::size_t num_tasks() const { return task_worker.size(); }

  /// Tasks hosted per worker (for capacity/overhead accounting).
  std::vector<std::size_t> tasks_per_worker(std::size_t num_workers) const;
};

/// Plan the deployment of `topology` under `config` onto `num_workers`
/// workers. `hints` must already be normalized (config.normalized_hints).
/// `seed` feeds the random policy; load-aware placement uses each task's
/// expected per-batch work derived from the topology profile.
Assignment assign_tasks(const Topology& topology,
                        const std::vector<int>& hints, int num_ackers,
                        std::size_t num_workers, SchedulerPolicy policy,
                        std::uint64_t seed);

/// Reusable scratch buffers for assign_tasks_into. Owned by the caller
/// (the simulation workspace) so repeated planning allocates nothing once
/// capacities are warm.
struct AssignScratch {
  std::vector<double> input;
  std::vector<double> task_load;
  std::vector<std::size_t> order;
  std::vector<double> worker_load;
  std::vector<std::size_t> worker_tasks;
  std::vector<std::size_t> topo_order;
  std::vector<std::size_t> indegree;
};

/// Allocation-free variant of assign_tasks(): fills `out` and reuses
/// `scratch` buffer capacity, under both policies in steady state (the
/// load-aware order is an in-place sort). Bitwise-identical plans to
/// assign_tasks() (which is implemented on top of this).
void assign_tasks_into(const Topology& topology, const std::vector<int>& hints,
                       int num_ackers, std::size_t num_workers,
                       SchedulerPolicy policy, std::uint64_t seed,
                       Assignment& out, AssignScratch& scratch);

}  // namespace stormtune::sim
