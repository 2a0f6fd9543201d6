#include "common/thread_pool.hpp"

#include <algorithm>
#include <thread>

#include "common/error.hpp"
#include "common/check.hpp"

namespace stormtune {

std::size_t default_thread_count() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(8, hw));
}

StrandPool::StrandPool(std::size_t num_threads)
    : num_threads_(num_threads), deques_(num_threads) {
  STORMTUNE_REQUIRE(num_threads >= 1, "StrandPool: need at least one thread");
}

STORMTUNE_HOT Strand* StrandPool::pop_own(std::size_t worker_id) {
  WorkerDeque& d = deques_[worker_id];
  std::lock_guard<std::mutex> lk(d.mutex);
  if (d.strands.empty()) return nullptr;
  Strand* s = d.strands.back();  // LIFO: resume the warmest job
  d.strands.pop_back();
  return s;
}

STORMTUNE_HOT Strand* StrandPool::steal(std::size_t worker_id) {
  // Scan victims round-robin from our right-hand neighbour. Within a
  // victim's deque, take from the OLDEST end; prefer the first entry in
  // the head window with a positive steal preference (phase-aware: grab
  // migration-cheap simulation work before uprooting a suggest phase).
  constexpr std::size_t kHeadScan = 8;
  for (std::size_t k = 1; k < num_threads_; ++k) {
    WorkerDeque& d = deques_[(worker_id + k) % num_threads_];
    std::lock_guard<std::mutex> lk(d.mutex);
    if (d.strands.empty()) continue;
    const std::size_t window = std::min(kHeadScan, d.strands.size());
    std::size_t pick = 0;
    for (std::size_t i = 0; i < window; ++i) {
      if (d.strands[i]->steal_preference() > 0) {
        pick = i;
        break;
      }
    }
    Strand* s = d.strands[static_cast<std::ptrdiff_t>(pick)];
    d.strands.erase(d.strands.begin() + static_cast<std::ptrdiff_t>(pick));
    steal_count_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  return nullptr;
}

STORMTUNE_HOT void StrandPool::push(std::size_t worker_id,
                                    Strand* strand) {
  {
    WorkerDeque& d = deques_[worker_id];
    std::lock_guard<std::mutex> lk(d.mutex);
    d.strands.push_back(strand);
  }
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    ++park_epoch_;
  }
  park_cv_.notify_one();
}

STORMTUNE_HOT void StrandPool::retire_one() {
  if (active_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Last strand done: wake every parked worker so they can exit.
    std::lock_guard<std::mutex> lk(park_mutex_);
    ++park_epoch_;
    park_cv_.notify_all();
  }
}

void StrandPool::worker_loop(std::size_t worker_id) {
  while (true) {
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lk(park_mutex_);
      seen = park_epoch_;
    }
    Strand* s = pop_own(worker_id);
    if (s == nullptr) s = steal(worker_id);
    if (s == nullptr) {
      if (active_.load(std::memory_order_seq_cst) == 0) return;
      std::unique_lock<std::mutex> lk(park_mutex_);
      park_cv_.wait(lk, [&] {
        return park_epoch_ != seen ||
               active_.load(std::memory_order_seq_cst) == 0;
      });
      continue;
    }
    bool more = false;
    if (!abort_.load(std::memory_order_relaxed)) {
      try {
        more = s->step();
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
        abort_.store(true, std::memory_order_relaxed);
        more = false;
      }
    }
    if (more) {
      push(worker_id, s);
    } else {
      retire_one();
    }
  }
}

void StrandPool::run(const std::vector<Strand*>& strands) {
  if (strands.empty()) return;
  abort_.store(false, std::memory_order_seq_cst);
  first_error_ = nullptr;
  steal_count_.store(0, std::memory_order_seq_cst);
  active_.store(strands.size(), std::memory_order_seq_cst);
  for (std::size_t i = 0; i < strands.size(); ++i) {
    STORMTUNE_REQUIRE(strands[i] != nullptr, "StrandPool: null strand");
    deques_[i % num_threads_].strands.push_back(strands[i]);
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads_ - 1);
  for (std::size_t w = 1; w < num_threads_; ++w) {
    workers.emplace_back([this, w] { worker_loop(w); });
  }
  worker_loop(0);  // the caller participates as worker 0
  for (auto& t : workers) t.join();
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace stormtune
