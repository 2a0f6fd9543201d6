// The deterministic thread pool underneath the BO suggest loop. The key
// contract under test: for a fixed shard count, results are identical no
// matter how many threads execute the shards (including the inline size-1
// pool), and exceptions from shards surface on the caller.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace stormtune {
namespace {

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> counts(37, 0);
    pool.parallel_for(counts.size(), [&](std::size_t s) { counts[s]++; });
    for (std::size_t s = 0; s < counts.size(); ++s) {
      EXPECT_EQ(counts[s], 1) << "shard " << s;
    }
  }
}

TEST(ThreadPool, HandlesZeroAndFewerShardsThanThreads) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallel_for(0, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0);
  pool.parallel_for(2, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // Each shard derives its own Rng stream and writes only its own slot, the
  // pattern the suggest loop uses. The merged result must be bitwise equal
  // for every pool size.
  constexpr std::size_t kShards = 16;
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kShards, 0.0);
    pool.parallel_for(kShards, [&](std::size_t s) {
      Rng rng = Rng::stream(123, s);
      double acc = 0.0;
      for (int i = 0; i < 100; ++i) acc += rng.normal();
      out[s] = acc;
    });
    return out;
  };
  const auto ref = run(1);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const auto got = run(threads);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(ref[s], got[s]) << "threads=" << threads << " shard=" << s;
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  long total = 0;
  for (int job = 0; job < 50; ++job) {
    std::vector<long> partial(8, 0);
    pool.parallel_for(partial.size(), [&](std::size_t s) {
      partial[s] = static_cast<long>(s) + job;
    });
    total += std::accumulate(partial.begin(), partial.end(), 0L);
  }
  // Σ_job Σ_s (s + job) = 50*28 + 8*Σ_{0..49} job.
  EXPECT_EQ(total, 50L * 28 + 8L * 1225);
}

TEST(ThreadPool, ShardExceptionPropagatesToCaller) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(16,
                          [&](std::size_t s) {
                            ran++;
                            if (s == 5) throw std::runtime_error("shard 5");
                          }),
        std::runtime_error);
    // The pool must stay usable after a failed job.
    pool.parallel_for(4, [&](std::size_t) { ran++; });
    EXPECT_GE(ran.load(), 4);
  }
}

TEST(ThreadPool, DefaultThreadCountIsBoundedAndPositive) {
  const std::size_t n = ThreadPool::default_thread_count();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 8u);
}

/// A strand that appends its own step results to state it alone owns —
/// the campaign scheduler's pattern. Each step draws from the strand's
/// private Rng, so the values are a pure function of (id, step) no matter
/// which worker runs them.
class CountingStrand : public Strand {
 public:
  CountingStrand(std::size_t id, std::size_t steps, int preference = 0)
      : rng_(Rng::stream(77, id)), steps_(steps), preference_(preference) {}

  bool step() override {
    values_.push_back(rng_.normal());
    return values_.size() < steps_;
  }

  int steal_preference() const override { return preference_; }

  const std::vector<double>& values() const { return values_; }

 private:
  Rng rng_;
  std::size_t steps_;
  int preference_;
  std::vector<double> values_;
};

TEST(StrandPool, RunsEveryStrandToCompletion) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    StrandPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::unique_ptr<CountingStrand>> strands;
    std::vector<Strand*> ptrs;
    for (std::size_t i = 0; i < 23; ++i) {
      strands.push_back(std::make_unique<CountingStrand>(i, 1 + i % 7));
      ptrs.push_back(strands.back().get());
    }
    pool.run(ptrs);
    for (std::size_t i = 0; i < strands.size(); ++i) {
      EXPECT_EQ(strands[i]->values().size(), 1 + i % 7) << "strand " << i;
    }
  }
}

TEST(StrandPool, EmptyRunIsANoOp) {
  StrandPool pool(4);
  pool.run({});
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(StrandPool, ResultsIndependentOfThreadCount) {
  // The determinism contract: strand-owned state makes WHAT each step
  // computes schedule-independent, so per-strand results are bitwise
  // identical for any pool width.
  static constexpr std::size_t kStrands = 16;
  static constexpr std::size_t kSteps = 40;
  auto run = [](std::size_t threads) {
    StrandPool pool(threads);
    std::vector<std::unique_ptr<CountingStrand>> strands;
    std::vector<Strand*> ptrs;
    for (std::size_t i = 0; i < kStrands; ++i) {
      strands.push_back(
          std::make_unique<CountingStrand>(i, kSteps, i % 2 ? 1 : 0));
      ptrs.push_back(strands.back().get());
    }
    pool.run(ptrs);
    std::vector<std::vector<double>> out;
    for (const auto& s : strands) out.push_back(s->values());
    return out;
  };
  const auto ref = run(1);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const auto got = run(threads);
    for (std::size_t i = 0; i < kStrands; ++i) {
      EXPECT_EQ(ref[i], got[i]) << "threads=" << threads << " strand=" << i;
    }
  }
}

TEST(StrandPool, StealPathIsExercised) {
  // One long strand seeds worker 0's deque alongside a short one; every
  // other worker starts empty, so any progress they make must come from
  // steals. With far more strands than workers and many steps each, at
  // least one steal is all but guaranteed on any real interleaving — but
  // not strictly: if it ever flakes, the run below still asserts the
  // stronger property (completion + per-strand results).
  StrandPool pool(4);
  std::vector<std::unique_ptr<CountingStrand>> strands;
  std::vector<Strand*> ptrs;
  for (std::size_t i = 0; i < 64; ++i) {
    // Mixed phases: odd strands advertise steal-preference 1 so the
    // phase-aware victim scan runs both of its branches.
    strands.push_back(
        std::make_unique<CountingStrand>(i, 50, i % 2 ? 1 : 0));
    ptrs.push_back(strands.back().get());
  }
  pool.run(ptrs);
  for (const auto& s : strands) EXPECT_EQ(s->values().size(), 50u);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(StrandPool, SingleThreadRunsInlineInSubmissionOrder) {
  // With one worker and single-step strands there is nothing to steal and
  // nothing to interleave: execution order is pop-own LIFO over the seeded
  // deque, and no steals can occur.
  StrandPool pool(1);
  std::vector<std::size_t> order;
  class OrderStrand : public Strand {
   public:
    OrderStrand(std::size_t id, std::vector<std::size_t>& order)
        : id_(id), order_(order) {}
    bool step() override {
      order_.push_back(id_);
      return false;
    }

   private:
    std::size_t id_;
    std::vector<std::size_t>& order_;
  };
  std::vector<std::unique_ptr<OrderStrand>> strands;
  std::vector<Strand*> ptrs;
  for (std::size_t i = 0; i < 6; ++i) {
    strands.push_back(std::make_unique<OrderStrand>(i, order));
    ptrs.push_back(strands.back().get());
  }
  pool.run(ptrs);
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(StrandPool, StepExceptionPropagatesAndAbandonsRemainingWork) {
  for (std::size_t threads : {1u, 4u}) {
    StrandPool pool(threads);
    class ThrowingStrand : public Strand {
     public:
      explicit ThrowingStrand(bool throws) : throws_(throws) {}
      bool step() override {
        ++steps_;
        if (throws_) throw std::runtime_error("strand failure");
        return steps_ < 1000;
      }
      std::size_t steps() const { return steps_; }

     private:
      bool throws_;
      std::size_t steps_ = 0;
    };
    std::vector<std::unique_ptr<ThrowingStrand>> strands;
    std::vector<Strand*> ptrs;
    for (std::size_t i = 0; i < 8; ++i) {
      strands.push_back(std::make_unique<ThrowingStrand>(i == 3));
      ptrs.push_back(strands.back().get());
    }
    EXPECT_THROW(pool.run(ptrs), std::runtime_error);
    // After the abort flag is up no further steps run; strands past their
    // first steps are simply retired. The pool must stay usable.
    std::vector<std::unique_ptr<CountingStrand>> again;
    std::vector<Strand*> again_ptrs;
    for (std::size_t i = 0; i < 4; ++i) {
      again.push_back(std::make_unique<CountingStrand>(i, 3));
      again_ptrs.push_back(again.back().get());
    }
    pool.run(again_ptrs);
    for (const auto& s : again) EXPECT_EQ(s->values().size(), 3u);
  }
}

}  // namespace
}  // namespace stormtune
