#include "stormsim/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace stormtune::sim {

std::string to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin: return "round-robin";
    case SchedulerPolicy::kRandom: return "random";
    case SchedulerPolicy::kLoadAware: return "load-aware";
  }
  return "unknown";
}

std::vector<std::size_t> Assignment::tasks_per_worker(
    std::size_t num_workers) const {
  std::vector<std::size_t> counts(num_workers, 0);
  for (std::size_t w : task_worker) {
    STORMTUNE_REQUIRE(w < num_workers,
                      "Assignment: worker id out of range");
    ++counts[w];
  }
  return counts;
}

Assignment assign_tasks(const Topology& topology,
                        const std::vector<int>& hints, int num_ackers,
                        std::size_t num_workers, SchedulerPolicy policy,
                        std::uint64_t seed) {
  Assignment a;
  AssignScratch scratch;
  assign_tasks_into(topology, hints, num_ackers, num_workers, policy, seed, a,
                    scratch);
  return a;
}

void assign_tasks_into(const Topology& topology, const std::vector<int>& hints,
                       int num_ackers, std::size_t num_workers,
                       SchedulerPolicy policy, std::uint64_t seed,
                       Assignment& out, AssignScratch& scratch) {
  STORMTUNE_REQUIRE(num_workers > 0, "assign_tasks: no workers");
  STORMTUNE_REQUIRE(hints.size() == topology.num_nodes(),
                    "assign_tasks: hint count mismatch");
  STORMTUNE_REQUIRE(num_ackers >= 0, "assign_tasks: negative acker count");

  out.node_tasks.resize(topology.num_nodes());
  for (auto& tasks : out.node_tasks) tasks.clear();
  out.acker_tasks.clear();

  // Expected per-batch work of each task (for load-aware placement), using
  // a reference batch of 1 tuple — only the relative weights matter.
  topology.input_tuples_per_batch_into(1.0, scratch.input, scratch.topo_order,
                                       scratch.indegree);
  const std::vector<double>& input = scratch.input;
  std::vector<double>& task_load = scratch.task_load;
  task_load.clear();

  for (std::size_t v = 0; v < topology.num_nodes(); ++v) {
    STORMTUNE_REQUIRE(hints[v] >= 1, "assign_tasks: hint must be >= 1");
    const Node& node = topology.node(v);
    const double ntasks = static_cast<double>(hints[v]);
    const double contention = node.contentious ? ntasks : 1.0;
    const double load =
        input[v] / ntasks * node.time_complexity * contention;
    for (int i = 0; i < hints[v]; ++i) {
      out.node_tasks[v].push_back(task_load.size());
      task_load.push_back(load);
    }
  }
  for (int i = 0; i < num_ackers; ++i) {
    out.acker_tasks.push_back(task_load.size());
    task_load.push_back(0.0);  // bookkeeping load is small and data-driven
  }

  const std::size_t n = task_load.size();
  out.task_worker.resize(n);

  switch (policy) {
    case SchedulerPolicy::kRoundRobin: {
      for (std::size_t t = 0; t < n; ++t) out.task_worker[t] = t % num_workers;
      break;
    }
    case SchedulerPolicy::kRandom: {
      Rng rng(seed);
      for (std::size_t t = 0; t < n; ++t) {
        out.task_worker[t] = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(num_workers) - 1));
      }
      break;
    }
    case SchedulerPolicy::kLoadAware: {
      // Longest-processing-time-first greedy over the topology tasks:
      // heaviest task onto the currently least-loaded worker (ties broken
      // by task count, then worker id, for determinism). Zero-load system
      // tasks (ackers) are spread round-robin afterwards — greedy placement
      // would pile them all onto whichever worker happens to be lightest.
      const std::size_t num_topology_tasks = n - out.acker_tasks.size();
      std::vector<std::size_t>& order = scratch.order;
      order.resize(num_topology_tasks);
      std::iota(order.begin(), order.end(), 0);
      // In place, heaviest first and equal loads by task index: the order a
      // stable sort of the identity gives, without its temporary buffer.
      std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return task_load[x] > task_load[y] ||
               (task_load[x] == task_load[y] && x < y);
      });
      std::vector<double>& worker_load = scratch.worker_load;
      std::vector<std::size_t>& worker_tasks = scratch.worker_tasks;
      worker_load.assign(num_workers, 0.0);
      worker_tasks.assign(num_workers, 0);
      for (std::size_t t : order) {
        std::size_t best = 0;
        for (std::size_t w = 1; w < num_workers; ++w) {
          if (worker_load[w] < worker_load[best] ||
              (worker_load[w] == worker_load[best] &&
               worker_tasks[w] < worker_tasks[best])) {
            best = w;
          }
        }
        out.task_worker[t] = best;
        worker_load[best] += task_load[t];
        ++worker_tasks[best];
      }
      std::size_t next = 0;
      for (std::size_t t : out.acker_tasks) {
        out.task_worker[t] = next;
        next = (next + 1) % num_workers;
      }
      break;
    }
  }
}

}  // namespace stormtune::sim
