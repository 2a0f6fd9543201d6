#include "stormsim/engine.hpp"

#include "stormsim/departure_tree.hpp"
#include "stormsim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/dary_heap.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace stormtune::sim {
namespace engine_detail {

using JobId = std::size_t;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

enum class JobKind : std::uint8_t {
  kSpoutEmit,  // spout task injecting its share of a batch
  kReceive,    // worker-side deserialization of a task's inbound tuples
  kCompute,    // bolt task processing its share of a batch
  kAck,        // acker bookkeeping for one node's emissions in a batch
  kCommit,     // serial coordinator work committing a batch
};

struct Job {
  JobKind kind;
  std::size_t node = kNone;    // topology node (spout/bolt) or kNone
  std::size_t task = kNone;    // serial-gate id (task instance)
  std::size_t worker = kNone;  // worker whose pools gate this job
  std::size_t batch = 0;       // batch SLOT (see BatchState::number)
  double work = 0.0;  // core-milliseconds at full speed
  /// Creation sequence number. Job slots are recycled through a free list,
  /// so slot ids are not creation-ordered; every ordering decision (the
  /// machine heaps' tie-break) uses this ticket instead, which reproduces
  /// the creation-order tie-break of the pre-free-list engine exactly.
  std::uint64_t ticket = 0;
  /// Intrusive FIFO link while the job waits in a task gate or worker pool.
  std::size_t next = kNone;
};

/// Intrusive FIFO of jobs linked through Job::next — no allocation per
/// enqueue, unlike the std::deque<JobId> it replaces.
struct JobQueue {
  std::size_t head = kNone;
  std::size_t tail = kNone;
  bool empty() const { return head == kNone; }
};

/// A machine's active job: ordered by (virtual end time, creation ticket).
/// Both components together form a total order (tickets are unique), so the
/// pop order is independent of the heap's internal layout.
struct ActiveJob {
  double v_end = 0.0;
  std::uint64_t ticket = 0;
  JobId job = 0;
};

struct ActiveJobEarlier {
  bool operator()(const ActiveJob& x, const ActiveJob& y) const {
    if (x.v_end != y.v_end) return x.v_end < y.v_end;
    return x.ticket < y.ticket;
  }
};

/// Processor-sharing machine: all active jobs progress at the same rate
/// min(1, cores/active) * speed_factor, tracked with a shared virtual
/// service clock V. A job entering with `work` remaining departs when V
/// reaches its entry V plus work.
///
/// The rate is maintained incrementally: `cached_rate` is refreshed on
/// every push/pop/speed change through a per-active-count share table, so
/// the hot paths (advance + departure scheduling, the engine's dominant
/// cost) never divide. The cached value is bit-identical to evaluating
/// min(1, effective_cores/active) * speed_factor directly.
struct MachineState {
  double cores = 4.0;           // physical cores (capacity accounting)
  double effective_cores = 4.0; // physical minus per-task polling overhead
  double base_speed_factor = 1.0;  // background ("student") load, fixed per run
  double speed_factor = 1.0;       // base x current memory pressure

  double virtual_service = 0.0;  // V
  double last_update = 0.0;
  double cached_rate = 0.0;      // rate for the CURRENT active set / speed

  // Min-heap of active jobs by (V_end, ticket).
  DaryHeap<ActiveJob, 4, ActiveJobEarlier> active;

  double busy_core_ms = 0.0;  // integrated busy cores (capacity accounting)
  double egress_bytes = 0.0;

  /// core_share[k] = min(1, effective_cores / k), filled lazily per run
  /// (effective_cores is fixed once the deployment is built). The vector
  /// keeps its capacity across runs; `core_share_filled` marks how many
  /// entries are valid for the current run.
  std::vector<double> core_share;
  std::size_t core_share_filled = 0;

  void fill_core_share(std::size_t k) {
    if (core_share.size() <= k) core_share.resize(k + 1);
    if (core_share_filled == 0) {
      core_share[0] = 0.0;
      core_share_filled = 1;
    }
    for (; core_share_filled <= k; ++core_share_filled) {
      core_share[core_share_filled] = std::min(
          1.0, effective_cores / static_cast<double>(core_share_filled));
    }
  }

  /// Recompute cached_rate after the active set or speed factor changed.
  void refresh_rate() {
    const std::size_t k = active.size();
    if (k == 0) {
      cached_rate = 0.0;
      return;
    }
    if (k >= core_share_filled) fill_core_share(k);
    cached_rate = core_share[k] * speed_factor;
  }

  void advance(double now) {
    if (now > last_update) {
      const double dt = now - last_update;
      virtual_service += dt * cached_rate;
      busy_core_ms +=
          dt * std::min(static_cast<double>(active.size()), cores);
      last_update = now;
    }
  }
};

struct WorkerState {
  std::size_t machine = 0;
  int exec_active = 0;
  JobQueue exec_queue;
  int recv_active = 0;
  JobQueue recv_queue;
};

struct TaskGate {
  bool busy = false;
  JobQueue pending;
};

/// Per-batch state. Slots are recycled through a free list once the batch
/// commits, so the engine holds O(batch_parallelism) of these regardless of
/// run length; `number` is the global (monotone) batch index.
struct BatchState {
  std::uint64_t number = 0;
  double emit_time = 0.0;
  std::size_t nodes_done = 0;
  std::size_t acks_pending = 0;
  bool processing_done = false;
  bool commit_submitted = false;
  std::vector<std::size_t> edges_pending;  // per node: in-edges not yet arrived
  std::vector<double> node_ready_time;     // per node: inputs-complete time
  std::vector<std::size_t> jobs_remaining; // per node: outstanding emit/compute
};

/// A tuple transfer landing on a destination node. Departure events do not
/// live here — each machine owns exactly one leaf of a winner tree (see
/// SimWorkspace::departures_).
struct EdgeEvent {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for determinism
  std::size_t node = 0;   // destination node
  std::size_t batch = 0;  // batch slot
};

struct EdgeEventEarlier {
  bool operator()(const EdgeEvent& x, const EdgeEvent& y) const {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }
};

/// A run's last RNG draw: the multiplicative measurement noise on the
/// committed-tuple throughput. run() and redraw_noise() both draw it here.
void apply_measurement_noise(SimResult& r, const SimParams& params, Rng& rng) {
  const double noise =
      params.throughput_noise_sd > 0.0
          ? std::max(0.0, 1.0 + rng.normal(0.0, params.throughput_noise_sd))
          : 1.0;
  r.throughput_tuples_per_s = r.noiseless_throughput * noise;
}

}  // namespace engine_detail

using namespace engine_detail;

/// All engine state, persistent across runs. Every run rewrites every field
/// it reads; vectors and heaps keep their capacity, and slot pools hand out
/// indices from a per-run high-water mark so a reused workspace allocates
/// (and orders) slots exactly like a fresh one.
struct SimWorkspace {
  // ---- inputs of the current run (borrowed; valid during run() only) ----
  const Topology* topo_ = nullptr;
  const TopologyConfig* config_ = nullptr;
  const ClusterSpec* cluster_ = nullptr;
  const SimParams* params_ = nullptr;
  Rng rng_;

  // ---- deployment (rebuilt per run into reused buffers) ----
  std::vector<int> hints_;                     // per node, normalized
  Assignment assignment_;                      // node_tasks / ackers / workers
  AssignScratch assign_scratch_;
  std::size_t coordinator_task_ = 0;
  std::vector<TaskGate> tasks_;                // per task, +1 coordinator gate
  std::vector<WorkerState> workers_;
  std::vector<MachineState> machines_;         // last one is the master VM
  std::size_t master_machine_ = 0;
  std::size_t master_worker_ = 0;
  std::vector<std::size_t> tasks_on_machine_;  // scratch
  std::vector<std::size_t> spouts_;            // cached spout ids

  // ---- validation scratch ----
  std::vector<unsigned char> reachable_;
  std::vector<std::size_t> reach_stack_;

  // ---- per-batch workload profile (identical for every batch) ----
  std::vector<double> in_tuples_;       // per node
  std::vector<double> out_tuples_;      // per node
  std::vector<double> compute_work_;    // per node, per task, core-ms
  std::vector<double> recv_work_;       // per node, per task, core-ms
  std::vector<double> ack_work_;        // per node, core-ms
  std::vector<std::size_t> in_edge_count_;     // per node
  std::vector<double> edge_delay_ms_;   // per edge
  std::vector<double> edge_bytes_per_sender_;  // per edge
  std::vector<std::vector<std::size_t>> edge_sender_machines_;  // per edge
  std::vector<double> edge_tuples_;     // scratch
  std::vector<std::size_t> seen_stamp_; // scratch (per-edge sender dedup)
  std::vector<std::size_t> topo_order_; // scratch
  std::vector<std::size_t> indegree_;   // scratch
  double batch_memory_bytes_ = 0.0;

  // ---- dynamic state ----
  // Jobs and batches recycle slots through free lists; fresh slots come
  // from the high-water counters so reused pools hand out 0, 1, 2, ... in
  // exactly the order a fresh run's emplace_back would.
  std::vector<Job> jobs_;
  std::vector<JobId> free_jobs_;
  std::size_t jobs_used_ = 0;
  std::uint64_t job_ticket_ = 0;
  DaryHeap<EdgeEvent, 4, EdgeEventEarlier> edge_events_;
  // Next departure per machine, keyed (absolute time, schedule seq). The
  // seq comes from the same counter as edge events, so the merged event
  // order reproduces the single-queue FIFO tie-break exactly.
  DepartureTree departures_;
  // The departure pop's own reschedule of its machine, held out of the
  // tree while finish_job runs: a job restarting on that machine inside
  // finish_job reschedules it again, and only the last key reaches the
  // tree. held_machine_ is kNone whenever the event loop reads the tree.
  std::size_t held_machine_ = kNone;
  double held_time_ = 0.0;
  std::uint64_t held_seq_ = 0;
  bool held_idle_ = false;  // the held machine has no job left
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
  double memory_pressure_ = 1.0;
  double static_memory_share_ = 0.0;  // per-machine bytes for task overhead
  std::vector<BatchState> batches_;   // slots, recycled
  std::vector<std::size_t> free_batches_;
  std::size_t batches_used_ = 0;
  std::size_t batches_emitted_ = 0;
  std::size_t batches_inflight_ = 0;
  std::size_t batches_committed_ = 0;
  double total_latency_ms_ = 0.0;
  double duration_ms_ = 0.0;

  // ---- adaptive measurement window (SimParams::adaptive_window) ----
  bool adaptive_ = false;
  bool early_stop_ = false;
  double warmup_ms_ = 0.0;
  double block_anchor_ms_ = -1.0;  // first commit of the current block
  std::size_t block_commits_ = 0;  // commits accumulated in current block
  std::size_t blocks_ = 0;         // completed blocks (Welford count)
  double block_mean_ms_ = 0.0;     // running mean block duration
  double block_m2_ = 0.0;          // running sum of squared deviations

  // ---- per-node statistics (bottleneck attribution) ----
  std::vector<double> node_stage_sum_ms_;
  std::vector<double> node_stage_max_ms_;
  std::vector<std::size_t> node_batches_done_;
  std::vector<double> node_busy_core_ms_;

  // ---- reusable result (returned by reference) ----
  SimResult result_;

#ifdef STORMTUNE_CHECKED
  // ---- checked-build shadow state (absent from release builds) ----
  // One liveness bit per slot: set when the pool hands a slot out, cleared
  // when it returns to the free list. Catches double-free and
  // use-after-free of recycled slots, the failure mode the golden tests can
  // only detect indirectly through a changed bit pattern.
  std::vector<unsigned char> job_live_;
  std::vector<unsigned char> batch_live_;

  /// Reuse-precondition verification, run at every run() entry against the
  /// state the previous run left behind: the departure tree must be
  /// consistent node by node and both free lists must hold unique,
  /// dead slots below their high-water marks. A corrupted workspace fails
  /// here instead of silently diverging from a fresh simulator.
  void checked_verify_reuse() const {
    departures_.checked_verify();
    std::vector<unsigned char> seen(jobs_used_, 0);
    for (const JobId id : free_jobs_) {
      STORMTUNE_INVARIANT(id < jobs_used_,
                          "SimWorkspace: free job slot beyond high-water mark");
      STORMTUNE_INVARIANT(!seen[id],
                          "SimWorkspace: job slot on the free list twice");
      seen[id] = 1;
      STORMTUNE_INVARIANT(!job_live_[id],
                          "SimWorkspace: free job slot still marked live");
    }
    seen.assign(batches_used_, 0);
    for (const std::size_t slot : free_batches_) {
      STORMTUNE_INVARIANT(
          slot < batches_used_,
          "SimWorkspace: free batch slot beyond high-water mark");
      STORMTUNE_INVARIANT(!seen[slot],
                          "SimWorkspace: batch slot on the free list twice");
      seen[slot] = 1;
      STORMTUNE_INVARIANT(!batch_live_[slot],
                          "SimWorkspace: free batch slot still marked live");
    }
  }
#endif

  const SimResult& run(const Topology& topology, const TopologyConfig& config,
                       const ClusterSpec& cluster, const SimParams& params,
                       std::uint64_t seed);

 private:
  // ---- setup ----
  void validate_inputs();
  void reset_run_state();
  void build_deployment();
  void precompute_batch_profile();

  // ---- event plumbing ----
  void push_edge_event(double time, std::size_t node, std::size_t batch) {
    edge_events_.push(EdgeEvent{time, seq_++, node, batch});
  }
  void schedule_machine_departure(std::size_t m);
  void release_held_departure();
  void update_memory_pressure();

  // ---- intrusive job queues ----
  void queue_push(JobQueue& q, JobId id) {
    STORMTUNE_DCHECK(job_live_[id], "simulate: queued a dead job slot");
    STORMTUNE_DCHECK(id != q.tail, "simulate: job FIFO self-link");
    jobs_[id].next = kNone;
    if (q.tail == kNone) {
      q.head = id;
    } else {
      jobs_[q.tail].next = id;
    }
    q.tail = id;
  }
  JobId queue_pop(JobQueue& q) {
    STORMTUNE_DCHECK(q.head != kNone, "simulate: pop from empty job FIFO");
    const JobId id = q.head;
    STORMTUNE_DCHECK(job_live_[id], "simulate: popped a dead job slot");
    q.head = jobs_[id].next;
    if (q.head == kNone) q.tail = kNone;
    return id;
  }

  // ---- job lifecycle ----
  JobId make_job(JobKind kind, std::size_t node, std::size_t task,
                 std::size_t worker, std::size_t batch, double work);
  void submit(JobId id);            // task gate -> worker gate -> machine
  void enter_worker_gate(JobId id); // worker pool -> machine
  void start_on_machine(JobId id);
  void finish_job(JobId id);

  // ---- topology progress ----
  void emit_ready_batches();
  void emit_batch();
  void node_completed(std::size_t node, std::size_t batch);
  void edge_arrived(std::size_t node, std::size_t batch);
  void maybe_commit(std::size_t batch);
  void batch_committed(std::size_t batch);

  // ---- adaptive window ----
  void observe_commit();

  bool task_gated(JobKind k) const { return k != JobKind::kReceive; }
};

void SimWorkspace::validate_inputs() {
  // Same checks and messages as Topology::validate() and
  // TopologyConfig::validate(), but routed through reusable scratch so
  // repeated runs stay allocation-free. The acyclicity check is redundant
  // here: Topology::connect() rejects any edge that would create a cycle
  // at insertion time.
  const std::size_t n = topo_->num_nodes();
  reachable_.assign(n, 0);
  reach_stack_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (topo_->nodes()[v].kind == NodeKind::kSpout) {
      reachable_[v] = 1;
      reach_stack_.push_back(v);
    }
  }
  STORMTUNE_REQUIRE(!reach_stack_.empty(),
                    "Topology: needs at least one spout");
  while (!reach_stack_.empty()) {
    const std::size_t v = reach_stack_.back();
    reach_stack_.pop_back();
    for (std::size_t eid : topo_->out_edge_ids(v)) {
      const std::size_t w = topo_->edges()[eid].to;
      if (!reachable_[w]) {
        reachable_[w] = 1;
        reach_stack_.push_back(w);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    STORMTUNE_REQUIRE(reachable_[v],
                      "Topology: node '" + topo_->nodes()[v].name +
                          "' is not reachable from any spout");
  }
  config_->validate(*topo_);
  STORMTUNE_REQUIRE(std::isfinite(params_->duration_s) &&
                        params_->duration_s > 0.0,
                    "simulate: duration_s must be finite and > 0");
  if (params_->adaptive_window) {
    STORMTUNE_REQUIRE(params_->adaptive_epsilon > 0.0,
                      "simulate: adaptive_epsilon must be > 0");
    STORMTUNE_REQUIRE(params_->adaptive_warmup_fraction >= 0.0 &&
                          params_->adaptive_warmup_fraction < 1.0,
                      "simulate: adaptive_warmup_fraction must be in [0, 1)");
    STORMTUNE_REQUIRE(params_->adaptive_block_commits >= 1,
                      "simulate: adaptive_block_commits must be >= 1");
    STORMTUNE_REQUIRE(params_->adaptive_min_blocks >= 2,
                      "simulate: adaptive_min_blocks must be >= 2");
  }
}

void SimWorkspace::reset_run_state() {
#ifdef STORMTUNE_CHECKED
  // Fresh run: every slot is dead until make_job/emit_batch hands it out.
  job_live_.assign(job_live_.size(), 0);
  batch_live_.assign(batch_live_.size(), 0);
#endif
  free_jobs_.clear();
  jobs_used_ = 0;
  job_ticket_ = 0;
  edge_events_.clear();
  seq_ = 0;
  now_ = 0.0;
  memory_pressure_ = 1.0;
  static_memory_share_ = 0.0;
  free_batches_.clear();
  batches_used_ = 0;
  batches_emitted_ = 0;
  batches_inflight_ = 0;
  batches_committed_ = 0;
  total_latency_ms_ = 0.0;
  duration_ms_ = params_->duration_s * 1000.0;
  adaptive_ = params_->adaptive_window;
  early_stop_ = false;
  warmup_ms_ = duration_ms_ * params_->adaptive_warmup_fraction;
  block_anchor_ms_ = -1.0;
  block_commits_ = 0;
  blocks_ = 0;
  block_mean_ms_ = 0.0;
  block_m2_ = 0.0;
}

void SimWorkspace::build_deployment() {
  config_->normalized_hints_into(*topo_, hints_);
  const std::size_t n = topo_->num_nodes();
  node_stage_sum_ms_.assign(n, 0.0);
  node_stage_max_ms_.assign(n, 0.0);
  node_batches_done_.assign(n, 0);
  node_busy_core_ms_.assign(n, 0.0);

  const std::size_t num_workers = cluster_->num_workers();
  STORMTUNE_REQUIRE(num_workers > 0, "simulate: cluster has no workers");

  machines_.resize(cluster_->num_machines + 1);
  for (auto& m : machines_) {
    m.cores = static_cast<double>(cluster_->cores_per_machine);
    m.effective_cores = m.cores;
    m.base_speed_factor = 1.0;
    m.virtual_service = 0.0;
    m.last_update = 0.0;
    m.cached_rate = 0.0;
    m.active.clear();
    m.busy_core_ms = 0.0;
    m.egress_bytes = 0.0;
    m.core_share_filled = 0;
    if (params_->background_load_prob > 0.0 &&
        rng_.bernoulli(params_->background_load_prob)) {
      m.base_speed_factor = params_->background_load_factor;
    }
    m.speed_factor = m.base_speed_factor;
  }
  master_machine_ = machines_.size() - 1;
  machines_[master_machine_].base_speed_factor = 1.0;  // dedicated VM
  machines_[master_machine_].speed_factor = 1.0;
  departures_.reset(machines_.size());
  held_machine_ = kNone;

  workers_.resize(num_workers + 1);
  master_worker_ = num_workers;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].machine =
        w < num_workers ? w / cluster_->workers_per_machine : master_machine_;
    workers_[w].exec_active = 0;
    workers_[w].exec_queue = JobQueue{};
    workers_[w].recv_active = 0;
    workers_[w].recv_queue = JobQueue{};
  }

  // Plan the task placement with the configured scheduler policy (Storm's
  // even scheduler by default). The seed is drawn for every policy:
  // redraw_noise() replays this draw order, so keep the two in step.
  assign_tasks_into(*topo_, hints_, config_->effective_ackers(num_workers),
                    num_workers, params_->scheduler, /*seed=*/rng_(),
                    assignment_, assign_scratch_);
  const std::size_t num_tasks = assignment_.task_worker.size();

  // One gate per task, plus the coordinator's gate on the master VM
  // (outside the worker round-robin).
  tasks_.resize(num_tasks + 1);
  for (auto& gate : tasks_) {
    gate.busy = false;
    gate.pending = JobQueue{};
  }
  coordinator_task_ = num_tasks;

  // Per-task polling/scheduling overhead erodes each machine's effective
  // capacity; grossly over-provisioned deployments approach zero capacity
  // ("only waste resources on context switching", Section IV-B2).
  tasks_on_machine_.assign(machines_.size(), 0);
  for (std::size_t t = 0; t < num_tasks; ++t) {  // coordinator not counted
    ++tasks_on_machine_[workers_[assignment_.task_worker[t]].machine];
  }
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].effective_cores = std::max(
        0.05, machines_[m].cores -
                  params_->task_poll_cores *
                      static_cast<double>(tasks_on_machine_[m]));
  }

  spouts_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (topo_->nodes()[v].kind == NodeKind::kSpout) spouts_.push_back(v);
  }
}

void SimWorkspace::precompute_batch_profile() {
  const double bs = static_cast<double>(config_->batch_size);
  topo_->input_tuples_per_batch_into(bs, in_tuples_, topo_order_, indegree_);
  // emitted = input scaled by selectivity (same arithmetic as
  // Topology::emitted_tuples_per_batch).
  out_tuples_ = in_tuples_;
  const std::size_t n = topo_->num_nodes();
  for (std::size_t v = 0; v < n; ++v) {
    out_tuples_[v] *= topo_->nodes()[v].selectivity;
  }

  compute_work_.resize(n);
  recv_work_.resize(n);
  ack_work_.resize(n);
  in_edge_count_.resize(n);
  batch_memory_bytes_ = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const Node& node = topo_->node(v);
    const double ntasks = static_cast<double>(hints_[v]);
    const double contention = node.contentious ? ntasks : 1.0;
    compute_work_[v] = in_tuples_[v] / ntasks * node.time_complexity *
                       contention * params_->compute_unit_ms;
    recv_work_[v] = node.kind == NodeKind::kBolt
                        ? in_tuples_[v] / ntasks *
                              params_->recv_units_per_tuple *
                              params_->compute_unit_ms
                        : 0.0;
    ack_work_[v] = out_tuples_[v] * params_->ack_units_per_tuple *
                   params_->compute_unit_ms;
    in_edge_count_[v] = topo_->in_edge_ids(v).size();
    batch_memory_bytes_ += in_tuples_[v] * params_->tuple_memory_bytes;
  }

  // Per-edge transfer profile. A fraction (1 - 1/M) of tuples cross machine
  // boundaries under shuffle grouping with evenly spread tasks.
  const double m = static_cast<double>(cluster_->num_machines);
  const double cross_fraction = m > 1.0 ? 1.0 - 1.0 / m : 0.0;
  const auto& edges = topo_->edges();
  // Tuples per edge, from the emitted profile (same arithmetic as
  // Topology::edge_tuples_per_batch).
  edge_tuples_.assign(edges.size(), 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& out = topo_->out_edge_ids(v);
    if (out.empty()) continue;
    const double share =
        topo_->nodes()[v].split_output
            ? out_tuples_[v] / static_cast<double>(out.size())
            : out_tuples_[v];
    for (std::size_t eid : out) edge_tuples_[eid] = share;
  }
  edge_delay_ms_.resize(edges.size());
  edge_bytes_per_sender_.resize(edges.size());
  edge_sender_machines_.resize(edges.size());
  // Stamp array for the per-edge sender dedup: seen_stamp[mach] == e marks
  // machine `mach` as already collected for edge e. Re-primed every run —
  // stale stamps from a previous run would alias edge ids.
  seen_stamp_.assign(machines_.size(), kNone);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::size_t from = edges[e].from;
    std::vector<std::size_t>& senders = edge_sender_machines_[e];
    senders.clear();
    for (std::size_t t : assignment_.node_tasks[from]) {
      const std::size_t mach = workers_[assignment_.task_worker[t]].machine;
      if (seen_stamp_[mach] != e) {
        seen_stamp_[mach] = e;
        senders.push_back(mach);
      }
    }
    const double bytes = edge_tuples_[e] * params_->tuple_bytes *
                         cross_fraction;
    const double nsenders =
        static_cast<double>(std::max<std::size_t>(senders.size(), 1));
    edge_bytes_per_sender_[e] = bytes / nsenders;
    const double transfer_ms =
        bytes / (cluster_->nic_bytes_per_sec * nsenders) * 1000.0;
    edge_delay_ms_[e] = params_->network_latency_ms + transfer_ms;
  }
}

void SimWorkspace::schedule_machine_departure(std::size_t m) {
  MachineState& mach = machines_[m];
  if (mach.active.empty()) {
    if (m == held_machine_) {
      held_idle_ = true;
    } else {
      departures_.erase(m);
    }
    return;
  }
  const double rate = mach.cached_rate;
  STORMTUNE_REQUIRE(rate > 0.0, "simulate: machine with jobs but zero rate");
  const double remaining =
      std::max(0.0, mach.active.top().v_end - mach.virtual_service);
  // x / 1.0 == x exactly, so the full-speed fast path skips the division
  // without changing a single bit.
  const double wait = rate == 1.0 ? remaining : remaining / rate;
  STORMTUNE_REQUIRE(seq_ < departures_.seq_limit(),
                    "simulate: event sequence overflows the departure key");
  if (m == held_machine_) {
    held_time_ = now_ + wait;
    held_seq_ = seq_++;
    held_idle_ = false;
    return;
  }
  departures_.set(m, now_ + wait, seq_++);
}

void SimWorkspace::release_held_departure() {
  const std::size_t m = held_machine_;
  held_machine_ = kNone;
  if (held_idle_) {
    departures_.erase(m);
  } else {
    departures_.set(m, held_time_, held_seq_);
  }
}

void SimWorkspace::update_memory_pressure() {
  // In-flight batch data spread over the worker machines; exceeding the
  // soft budget slows every worker machine down (GC/paging pressure).
  const double inflight_bytes =
      batch_memory_bytes_ * static_cast<double>(batches_inflight_);
  const double share = static_memory_share_ +
                       inflight_bytes /
                           static_cast<double>(cluster_->num_machines);
  const double over =
      std::max(0.0, share / cluster_->memory_soft_bytes - 1.0);
  const double pressure =
      1.0 / (1.0 + params_->memory_pressure_factor * over);
  if (pressure == memory_pressure_) return;
  memory_pressure_ = pressure;
  for (std::size_t m = 0; m < master_machine_; ++m) {
    MachineState& mach = machines_[m];
    mach.advance(now_);
    mach.speed_factor = mach.base_speed_factor * pressure;
    mach.refresh_rate();
    schedule_machine_departure(m);
  }
}

JobId SimWorkspace::make_job(JobKind kind, std::size_t node, std::size_t task,
                             std::size_t worker, std::size_t batch,
                             double work) {
  JobId id;
  if (!free_jobs_.empty()) {
    id = free_jobs_.back();
    free_jobs_.pop_back();
  } else {
    id = jobs_used_++;
    if (id == jobs_.size()) jobs_.emplace_back();
  }
#ifdef STORMTUNE_CHECKED
  if (id == job_live_.size()) job_live_.push_back(0);
#endif
  STORMTUNE_DCHECK(!job_live_[id], "simulate: allocated a live job slot");
  jobs_[id] = Job{kind, node, task, worker, batch, work, job_ticket_++, kNone};
#ifdef STORMTUNE_CHECKED
  job_live_[id] = 1;
#endif
  // Creation-ticket monotonicity: every ordering decision in the machine
  // heaps keys on the ticket, which must be the value the counter just
  // issued — a slot recycled with a stale ticket would silently reorder
  // ties against the fresh-run reference.
  STORMTUNE_DCHECK(jobs_[id].ticket + 1 == job_ticket_,
                   "simulate: job ticket not monotone with the counter");
  return id;
}

void SimWorkspace::submit(JobId id) {
  const Job& job = jobs_[id];
  if (task_gated(job.kind)) {
    TaskGate& gate = tasks_[job.task];
    if (gate.busy) {
      // Jobs are submitted immediately after creation, so a task gate's
      // pending FIFO is ordered by creation ticket — the property that
      // makes gate admission independent of slot recycling.
      STORMTUNE_DCHECK(gate.pending.tail == kNone ||
                           jobs_[gate.pending.tail].ticket < job.ticket,
                       "simulate: task gate FIFO out of creation order");
      queue_push(gate.pending, id);
      return;
    }
    gate.busy = true;
  }
  enter_worker_gate(id);
}

void SimWorkspace::enter_worker_gate(JobId id) {
  const Job& job = jobs_[id];
  WorkerState& w = workers_[job.worker];
  if (job.kind == JobKind::kReceive) {
    if (w.recv_active >= config_->receiver_threads) {
      queue_push(w.recv_queue, id);
      return;
    }
    ++w.recv_active;
  } else if (job.kind == JobKind::kCommit) {
    // The coordinator is not bounded by a worker executor pool.
  } else {
    if (w.exec_active >= config_->worker_threads) {
      queue_push(w.exec_queue, id);
      return;
    }
    ++w.exec_active;
  }
  start_on_machine(id);
}

void SimWorkspace::start_on_machine(JobId id) {
  const Job& job = jobs_[id];
  const std::size_t m = workers_[job.worker].machine;
  MachineState& mach = machines_[m];
  mach.advance(now_);
  mach.active.push(
      ActiveJob{mach.virtual_service + job.work, job.ticket, id});
  mach.refresh_rate();
  schedule_machine_departure(m);
}

void SimWorkspace::finish_job(JobId id) {
  STORMTUNE_DCHECK(id < jobs_.size() && job_live_[id],
                   "simulate: finishing a dead job slot");
  const Job job = jobs_[id];
  free_jobs_.push_back(id);  // slot dead from here on; `job` holds the copy
#ifdef STORMTUNE_CHECKED
  job_live_[id] = 0;
#endif
  WorkerState& w = workers_[job.worker];

  // Release the worker pool slot and admit the next queued job.
  if (job.kind == JobKind::kReceive) {
    --w.recv_active;
    if (!w.recv_queue.empty()) {
      const JobId next = queue_pop(w.recv_queue);
      ++w.recv_active;
      start_on_machine(next);
    }
  } else if (job.kind != JobKind::kCommit) {
    --w.exec_active;
    if (!w.exec_queue.empty()) {
      const JobId next = queue_pop(w.exec_queue);
      ++w.exec_active;
      start_on_machine(next);
    }
  }

  // Release the task gate and admit its next pending job.
  if (task_gated(job.kind)) {
    TaskGate& gate = tasks_[job.task];
    gate.busy = false;
    if (!gate.pending.empty()) {
      const JobId next = queue_pop(gate.pending);
      gate.busy = true;
      enter_worker_gate(next);
    }
  }

  // Completion semantics per kind.
  switch (job.kind) {
    case JobKind::kSpoutEmit:
    case JobKind::kCompute: {
      node_busy_core_ms_[job.node] += job.work;
      auto& remaining = batches_[job.batch].jobs_remaining;
      STORMTUNE_REQUIRE(remaining[job.node] > 0,
                        "simulate: node job accounting underflow");
      if (--remaining[job.node] == 0) node_completed(job.node, job.batch);
      break;
    }
    case JobKind::kReceive: {
      // Receiver done: the task's compute job may now run.
      const double work = compute_work_[job.node];
      const JobId compute = make_job(JobKind::kCompute, job.node, job.task,
                                     job.worker, job.batch, work);
      submit(compute);
      break;
    }
    case JobKind::kAck: {
      BatchState& b = batches_[job.batch];
      STORMTUNE_REQUIRE(b.acks_pending > 0,
                        "simulate: ack accounting underflow");
      --b.acks_pending;
      maybe_commit(job.batch);
      break;
    }
    case JobKind::kCommit: {
      batch_committed(job.batch);
      break;
    }
  }
}

void SimWorkspace::emit_ready_batches() {
  while (batches_inflight_ <
             static_cast<std::size_t>(config_->batch_parallelism) &&
         now_ < duration_ms_) {
    emit_batch();
  }
}

void SimWorkspace::emit_batch() {
  const std::uint64_t number = batches_emitted_++;
  ++batches_inflight_;
  std::size_t slot;
  if (!free_batches_.empty()) {
    slot = free_batches_.back();
    free_batches_.pop_back();
  } else {
    slot = batches_used_++;
    if (slot == batches_.size()) batches_.emplace_back();
  }
#ifdef STORMTUNE_CHECKED
  if (slot == batch_live_.size()) batch_live_.push_back(0);
#endif
  STORMTUNE_DCHECK(!batch_live_[slot], "simulate: allocated a live batch slot");
#ifdef STORMTUNE_CHECKED
  batch_live_[slot] = 1;
#endif
  BatchState& b = batches_[slot];
  const std::size_t n = topo_->num_nodes();
  b.number = number;
  b.emit_time = now_;
  b.nodes_done = 0;
  b.acks_pending = 0;
  b.processing_done = false;
  b.commit_submitted = false;
  b.edges_pending.resize(n);
  b.node_ready_time.assign(n, 0.0);
  b.jobs_remaining.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    b.edges_pending[v] = in_edge_count_[v];
  }
  update_memory_pressure();

  for (std::size_t s : spouts_) {
    b.node_ready_time[s] = now_;
    b.jobs_remaining[s] = assignment_.node_tasks[s].size();
    for (std::size_t t : assignment_.node_tasks[s]) {
      const JobId id = make_job(JobKind::kSpoutEmit, s, t,
                                assignment_.task_worker[t], slot,
                                compute_work_[s]);
      submit(id);
    }
  }
}

void SimWorkspace::node_completed(std::size_t node, std::size_t batch) {
  BatchState& b = batches_[batch];

  const double stage_ms = now_ - b.node_ready_time[node];
  node_stage_sum_ms_[node] += stage_ms;
  node_stage_max_ms_[node] = std::max(node_stage_max_ms_[node], stage_ms);
  ++node_batches_done_[node];

  // Acker bookkeeping for this node's emissions. Selection keys on the
  // global batch number, not the recycled slot.
  if (ack_work_[node] > 0.0 && !assignment_.acker_tasks.empty()) {
    ++b.acks_pending;
    const std::size_t acker =
        assignment_.acker_tasks[(node + static_cast<std::size_t>(b.number) *
                                            topo_->num_nodes()) %
                                assignment_.acker_tasks.size()];
    const JobId id = make_job(JobKind::kAck, node, acker,
                              assignment_.task_worker[acker], batch,
                              ack_work_[node]);
    submit(id);
  }

  // Propagate tuples downstream (network transfer per edge).
  for (std::size_t eid : topo_->out_edge_ids(node)) {
    const Edge& e = topo_->edges()[eid];
    for (std::size_t m : edge_sender_machines_[eid]) {
      machines_[m].egress_bytes += edge_bytes_per_sender_[eid];
    }
    push_edge_event(now_ + edge_delay_ms_[eid], e.to, batch);
  }

  if (++b.nodes_done == topo_->num_nodes()) {
    b.processing_done = true;
    maybe_commit(batch);
  }
}

void SimWorkspace::edge_arrived(std::size_t node, std::size_t batch) {
  BatchState& b = batches_[batch];
  STORMTUNE_REQUIRE(b.edges_pending[node] > 0,
                    "simulate: edge accounting underflow");
  if (--b.edges_pending[node] > 0) return;
  b.node_ready_time[node] = now_;

  // All inputs arrived: deserialization then compute, one pair per task.
  b.jobs_remaining[node] = assignment_.node_tasks[node].size();
  for (std::size_t t : assignment_.node_tasks[node]) {
    if (recv_work_[node] > 0.0) {
      const JobId recv = make_job(JobKind::kReceive, node, t,
                                  assignment_.task_worker[t], batch,
                                  recv_work_[node]);
      submit(recv);
    } else {
      const JobId compute = make_job(JobKind::kCompute, node, t,
                                     assignment_.task_worker[t], batch,
                                     compute_work_[node]);
      submit(compute);
    }
  }
}

void SimWorkspace::maybe_commit(std::size_t batch) {
  BatchState& b = batches_[batch];
  if (!b.processing_done || b.acks_pending > 0 || b.commit_submitted) return;
  b.commit_submitted = true;
  const double work =
      params_->commit_units_per_batch * params_->compute_unit_ms;
  const JobId id = make_job(JobKind::kCommit, kNone, coordinator_task_,
                            master_worker_, batch, work);
  submit(id);
}

void SimWorkspace::batch_committed(std::size_t batch) {
  BatchState& b = batches_[batch];
  STORMTUNE_REQUIRE(batches_inflight_ > 0,
                    "simulate: inflight accounting underflow");
  --batches_inflight_;
  if (now_ <= duration_ms_) {
    ++batches_committed_;
    total_latency_ms_ += now_ - b.emit_time;
    if (adaptive_ && !early_stop_ && now_ >= warmup_ms_) observe_commit();
  }
  STORMTUNE_DCHECK(batch_live_[batch], "simulate: committing a dead batch slot");
#ifdef STORMTUNE_CHECKED
  batch_live_[batch] = 0;
#endif
  free_batches_.push_back(batch);  // all events for this batch have fired
  update_memory_pressure();
  emit_ready_batches();
}

void SimWorkspace::observe_commit() {
  // Sequential confidence rule over block means of post-warmup commit
  // times. The first post-warmup commit anchors the first block; each
  // completed block (adaptive_block_commits commits) feeds a Welford
  // estimate of the mean block duration. Once the 95% CI half-width is
  // below adaptive_epsilon of the mean, the steady-state rate is pinned
  // down and the run ends early.
  if (block_anchor_ms_ < 0.0) {
    block_anchor_ms_ = now_;
    return;
  }
  if (++block_commits_ < params_->adaptive_block_commits) return;
  const double block_ms = now_ - block_anchor_ms_;
  block_anchor_ms_ = now_;
  block_commits_ = 0;
  ++blocks_;
  const double delta = block_ms - block_mean_ms_;
  block_mean_ms_ += delta / static_cast<double>(blocks_);
  block_m2_ += delta * (block_ms - block_mean_ms_);
  if (blocks_ < params_->adaptive_min_blocks || block_mean_ms_ <= 0.0) return;
  const double variance = block_m2_ / static_cast<double>(blocks_ - 1);
  const double half_width =
      1.96 * std::sqrt(variance / static_cast<double>(blocks_));
  if (half_width < params_->adaptive_epsilon * block_mean_ms_) {
    early_stop_ = true;
  }
}

STORMTUNE_HOT const SimResult& SimWorkspace::run(const Topology& topology,
                                   const TopologyConfig& config,
                                   const ClusterSpec& cluster,
                                   const SimParams& params,
                                   std::uint64_t seed) {
  topo_ = &topology;
  config_ = &config;
  cluster_ = &cluster;
  params_ = &params;
  rng_.reseed(seed);

#ifdef STORMTUNE_CHECKED
  // Reuse is only bitwise-transparent if the previous run left the
  // persistent structures consistent; verify before reset wipes them.
  checked_verify_reuse();
#endif

  // The departure tree packs (seq, machine) into 64 bits; its machine field
  // must hold every machine, the master VM included. That leaves seq at
  // least 48 bits, and schedule_machine_departure refuses to wrap it.
  STORMTUNE_REQUIRE(
      cluster.num_machines < DepartureTree::kMaxMachines,
      "simulate: cluster has " + std::to_string(cluster.num_machines) +
          " machines; the engine supports at most " +
          std::to_string(DepartureTree::kMaxMachines - 1));

  validate_inputs();
  reset_run_state();
  build_deployment();
  precompute_batch_profile();

  // Static per-machine memory footprint of the deployment itself. Past the
  // hard limit the worker JVMs OOM before doing useful work — the paper's
  // "zero performance" runs. The coordinator gate counts as a task here,
  // matching the pre-workspace engine.
  static_memory_share_ = static_cast<double>(tasks_.size()) *
                         params_->task_memory_bytes /
                         static_cast<double>(cluster_->num_machines);
  const double hard_limit =
      cluster_->memory_soft_bytes * params_->memory_hard_multiple;
  const double first_batch_share =
      batch_memory_bytes_ / static_cast<double>(cluster_->num_machines);
  if (static_memory_share_ + first_batch_share > hard_limit) {
    result_ = SimResult{};
    result_.crashed = true;
    std::size_t total_tasks = 0;
    for (const auto& ts : assignment_.node_tasks) total_tasks += ts.size();
    result_.total_tasks = total_tasks;
    return result_;
  }

  emit_ready_batches();

  // Event loop over two queues: the 4-ary heap of edge arrivals and the
  // winner tree of per-machine departures. Both order by (time, seq) with
  // seq drawn from one shared counter, so the merged order is exactly the
  // old single-queue order — minus the stale departure entries, which no
  // longer exist to be popped and discarded. A departure pop holds its
  // machine's reschedule until finish_job returns (see held_machine_), so
  // the tree's leaves after each event are exactly those of writing every
  // reschedule through, at one tree write fewer whenever finish_job starts
  // the next job on the popped machine.
  while (true) {
    STORMTUNE_DCHECK(held_machine_ == kNone,
                     "simulate: departure held across an event");
    const bool have_edge = !edge_events_.empty();
    const bool have_dep = !departures_.empty();
    if (!have_edge && !have_dep) break;
    bool take_dep = have_dep;
    if (have_edge && have_dep) {
      const double d = departures_.top_time();
      const EdgeEvent& e = edge_events_.top();
      take_dep = d != e.time ? d < e.time : departures_.top_seq() < e.seq;
    }
    const double time =
        take_dep ? departures_.top_time() : edge_events_.top().time;
    if (time > duration_ms_) break;
    now_ = time;
    if (take_dep) {
      const std::size_t m = departures_.top_machine();
      MachineState& mach = machines_[m];
      mach.advance(now_);
      STORMTUNE_REQUIRE(!mach.active.empty(),
                        "simulate: departure from idle machine");
      const JobId id = mach.active.top().job;
      // Guard against floating-point shortfall in the virtual clock.
      mach.virtual_service =
          std::max(mach.virtual_service, mach.active.top().v_end);
      mach.active.pop();
      mach.refresh_rate();
      held_machine_ = m;
      schedule_machine_departure(m);
      finish_job(id);
      release_held_departure();
    } else {
      const EdgeEvent ev = edge_events_.top();
      edge_events_.pop();
      edge_arrived(ev.node, ev.batch);
    }
    // Adaptive window: the confidence rule fires inside batch commits.
    if (early_stop_) break;
  }

  // With the adaptive window, the measured span is [0, now_]; rates are
  // computed over it and the committed count is extrapolated to the full
  // window at the estimated steady rate. Without it, the expressions below
  // reduce exactly to the fixed-window ones (measured == duration).
  const double measured_ms = early_stop_ ? now_ : duration_ms_;
  const double measured_s = early_stop_ ? now_ / 1000.0 : params_->duration_s;

  SimResult& r = result_;
  r.crashed = false;
  r.early_stopped = early_stop_;
  r.simulated_ms = measured_ms;
  r.batches_committed = batches_committed_;
  r.batches_emitted = batches_emitted_;
  double committed = static_cast<double>(batches_committed_);
  if (early_stop_) {
    const double per_commit_ms =
        block_mean_ms_ / static_cast<double>(params_->adaptive_block_commits);
    committed += (duration_ms_ - now_) / per_commit_ms;
  }
  r.tuples_committed = committed * static_cast<double>(config_->batch_size);
  r.noiseless_throughput = r.tuples_committed / params_->duration_s;
  apply_measurement_noise(r, *params_, rng_);
  r.mean_batch_latency_ms =
      batches_committed_ > 0
          ? total_latency_ms_ / static_cast<double>(batches_committed_)
          : 0.0;

  double total_egress = 0.0;
  double peak_util = 0.0;
  double busy = 0.0;
  for (std::size_t m = 0; m < master_machine_; ++m) {
    total_egress += machines_[m].egress_bytes;
    const double rate = machines_[m].egress_bytes / measured_s;
    peak_util = std::max(peak_util, rate / cluster_->nic_bytes_per_sec);
    machines_[m].advance(std::min(now_, duration_ms_));
    busy += machines_[m].busy_core_ms;
  }
  r.network_bytes_per_s_per_worker =
      total_egress / measured_s /
      static_cast<double>(cluster_->num_workers());
  r.peak_nic_utilization = peak_util;
  r.cpu_utilization =
      busy / (measured_ms * static_cast<double>(cluster_->total_cores()));

  std::size_t total_tasks = 0;
  for (const auto& ts : assignment_.node_tasks) total_tasks += ts.size();
  r.total_tasks = total_tasks;

  r.node_stats.resize(topo_->num_nodes());
  for (std::size_t v = 0; v < topo_->num_nodes(); ++v) {
    NodeStats& ns = r.node_stats[v];
    ns.name = topo_->node(v).name;
    ns.tasks = assignment_.node_tasks[v].size();
    ns.batches_processed = node_batches_done_[v];
    ns.mean_stage_ms =
        node_batches_done_[v] > 0
            ? node_stage_sum_ms_[v] /
                  static_cast<double>(node_batches_done_[v])
            : 0.0;
    ns.max_stage_ms = node_stage_max_ms_[v];
    ns.busy_core_ms = node_busy_core_ms_[v];
  }
  return r;
}

#ifdef STORMTUNE_CHECKED
namespace testing {

void corrupt_job_free_list(Simulator& sim) {
  SimWorkspace& ws = *sim.ws_;
  // Duplicate the newest free slot (or plant one past the high-water mark
  // on a fresh workspace) — either way the next run's reuse verification
  // must reject the free list.
  ws.free_jobs_.push_back(ws.free_jobs_.empty() ? 0 : ws.free_jobs_.back());
}

void corrupt_departure_index(Simulator& sim) {
  sim.ws_->departures_.checked_corrupt_node_for_test(1);  // the root
}

}  // namespace testing
#endif

Simulator::Simulator() : ws_(std::make_unique<SimWorkspace>()) {}
Simulator::~Simulator() = default;
Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;

STORMTUNE_HOT const SimResult& Simulator::run(const Topology& topology,
                                const TopologyConfig& config,
                                const ClusterSpec& cluster,
                                const SimParams& params, std::uint64_t seed) {
  return ws_->run(topology, config, cluster, params, seed);
}

SimResult simulate(const Topology& topology, const TopologyConfig& config,
                   const ClusterSpec& cluster, const SimParams& params,
                   std::uint64_t seed) {
  Simulator sim;
  return sim.run(topology, config, cluster, params, seed);
}

bool seed_only_draws_noise(const SimParams& params) {
  return params.background_load_prob == 0.0 &&
         params.scheduler != SchedulerPolicy::kRandom;
}

void redraw_noise(SimResult& result, const SimParams& params,
                  std::uint64_t seed) {
  STORMTUNE_REQUIRE(seed_only_draws_noise(params),
                    "redraw_noise: the seed also draws background load or "
                    "task placement, so the run itself depends on it");
  // run()'s draws, in order: one Bernoulli per machine when background
  // load is on (ruled out above); the placement seed, which every policy
  // but kRandom ignores; and, unless the deployment crashed before its
  // event loop, the measurement noise.
  Rng rng(seed);
  rng();
  if (result.crashed) return;
  apply_measurement_noise(result, params, rng);
}

}  // namespace stormtune::sim
