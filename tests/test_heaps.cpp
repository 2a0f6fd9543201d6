// DaryHeap and the engine's DepartureTree against reference implementations
// under randomized interleavings — these back the engine's event queues,
// where a wrong pop order silently changes simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "common/dary_heap.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "stormsim/departure_tree.hpp"

namespace stormtune {
namespace {

TEST(DaryHeap, PopsInSortedOrder) {
  Rng rng(1);
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    DaryHeap<int> heap;
    std::vector<int> expected;
    for (std::size_t i = 0; i < n; ++i) {
      const int v = static_cast<int>(rng.uniform_int(0, 100));
      heap.push(v);
      expected.push_back(v);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<int> got;
    while (!heap.empty()) {
      got.push_back(heap.top());
      heap.pop();
    }
    EXPECT_EQ(got, expected) << "n=" << n;
  }
}

TEST(DaryHeap, MatchesPriorityQueueUnderInterleaving) {
  Rng rng(2);
  DaryHeap<std::pair<double, std::uint64_t>> heap;
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>,
                      std::greater<>>
      reference;
  std::uint64_t seq = 0;
  for (int step = 0; step < 5000; ++step) {
    if (reference.empty() || rng.uniform() < 0.6) {
      // Duplicate-prone times + a unique seq: the engine's event-key shape.
      const std::pair<double, std::uint64_t> v{
          static_cast<double>(rng.uniform_int(0, 50)), seq++};
      heap.push(v);
      reference.push(v);
    } else {
      ASSERT_EQ(heap.top(), reference.top());
      heap.pop();
      reference.pop();
    }
  }
  while (!reference.empty()) {
    ASSERT_EQ(heap.top(), reference.top());
    heap.pop();
    reference.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeap, WorksAtOtherArities) {
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(3 + static_cast<std::uint64_t>(trial));
    DaryHeap<int, 2> binary;
    DaryHeap<int, 8> octal;
    std::vector<int> expected;
    for (int i = 0; i < 200; ++i) {
      const int v = static_cast<int>(rng.uniform_int(-1000, 1000));
      binary.push(v);
      octal.push(v);
      expected.push_back(v);
    }
    std::sort(expected.begin(), expected.end());
    for (int v : expected) {
      EXPECT_EQ(binary.top(), v);
      EXPECT_EQ(octal.top(), v);
      binary.pop();
      octal.pop();
    }
  }
}

/// Brute-force mirror of DepartureTree: a machine -> (time, seq) map scanned
/// for its minimum. Seqs are unique, so the minimum is always unique.
using Departure = std::pair<double, std::uint64_t>;

TEST(DepartureTree, SetEraseTopMatchBruteForce) {
  constexpr std::size_t kMachines = 37;  // not a power of two: 27 pad leaves
  Rng rng(4);
  sim::DepartureTree tree(kMachines);
  std::map<std::size_t, Departure> reference;
  std::uint64_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto m = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kMachines) - 1));
    const double op = rng.uniform();
    if (op < 0.55) {
      // Insert-or-update, sometimes to an earlier and sometimes to a later
      // departure than before; few distinct times, so seq breaks most ties.
      const Departure d{static_cast<double>(rng.uniform_int(0, 30)), seq++};
      tree.set(m, d.first, d.second);
      reference[m] = d;
    } else if (op < 0.75) {
      tree.erase(m);
      reference.erase(m);
    } else if (!reference.empty()) {
      const auto best = std::min_element(
          reference.begin(), reference.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      ASSERT_EQ(tree.top_machine(), best->first);
      ASSERT_EQ(tree.top_time(), best->second.first);
      ASSERT_EQ(tree.top_seq(), best->second.second);
      if (op < 0.85) {
        tree.erase(best->first);
        reference.erase(best);
      }
    }
    ASSERT_EQ(tree.empty(), reference.empty());
    ASSERT_EQ(tree.contains(m), reference.count(m) == 1);
  }
}

TEST(DepartureTree, EqualTimesBreakTiesBySeq) {
  sim::DepartureTree tree(4);
  tree.set(3, 2.5, 7);
  tree.set(0, 2.5, 9);
  tree.set(2, 2.5, 8);
  EXPECT_EQ(tree.top_machine(), 3u);
  EXPECT_EQ(tree.top_seq(), 7u);
  tree.erase(3);
  EXPECT_EQ(tree.top_machine(), 2u);
  tree.erase(2);
  EXPECT_EQ(tree.top_machine(), 0u);
  // An earlier time wins whatever its seq.
  tree.set(1, 2.0, 100);
  EXPECT_EQ(tree.top_machine(), 1u);
  EXPECT_EQ(tree.top_time(), 2.0);
}

TEST(DepartureTree, SetResetAndEraseOneKey) {
  sim::DepartureTree tree(2);
  tree.set(1, 4.0, 0);
  EXPECT_EQ(tree.top_machine(), 1u);
  EXPECT_EQ(tree.top_time(), 4.0);
  // Re-setting replaces the key in place, later and then earlier again.
  tree.set(1, 9.0, 1);
  EXPECT_EQ(tree.top_time(), 9.0);
  EXPECT_EQ(tree.top_seq(), 1u);
  tree.set(1, 0.0, 2);
  EXPECT_EQ(tree.top_time(), 0.0);
  EXPECT_EQ(tree.top_seq(), 2u);
  tree.erase(1);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.contains(1));
}

TEST(DepartureTree, EraseOnAbsentKeyIsANoOp) {
  sim::DepartureTree tree(4);
  tree.erase(2);
  EXPECT_TRUE(tree.empty());
  tree.set(1, 5.0, 0);
  tree.erase(3);
  EXPECT_TRUE(tree.contains(1));
  EXPECT_EQ(tree.top_machine(), 1u);
  EXPECT_EQ(tree.top_time(), 5.0);
}

TEST(DepartureTree, ResetResizesAndEmptiesTheTree) {
  sim::DepartureTree tree(2);
  tree.set(0, 3.0, 0);
  tree.set(1, 1.0, 1);
  tree.reset(5);
  EXPECT_TRUE(tree.empty());
  tree.set(4, 0.5, 2);
  tree.set(0, 0.75, 3);
  EXPECT_EQ(tree.top_machine(), 4u);
  tree.erase(4);
  EXPECT_EQ(tree.top_machine(), 0u);
}

TEST(DepartureTree, KeyPackingHoldsAtTheMachineLimit) {
  // At the largest machine count the machine field is 16 bits wide and seq
  // keeps 48; keys at the edges of both fields must decode and order
  // exactly.
  sim::DepartureTree tree(sim::DepartureTree::kMaxMachines);
  const std::size_t last = sim::DepartureTree::kMaxMachines - 1;
  const std::uint64_t top_seq = tree.seq_limit() - 1;
  EXPECT_EQ(tree.seq_limit(), std::uint64_t{1} << 48);
  tree.set(last, 1e300, top_seq);
  tree.set(0, 1e300, top_seq - 1);
  EXPECT_EQ(tree.top_machine(), 0u);
  tree.erase(0);
  EXPECT_EQ(tree.top_machine(), last);
  EXPECT_EQ(tree.top_seq(), top_seq);
  EXPECT_EQ(tree.top_time(), 1e300);
  // The smallest positive double still precedes every larger time.
  tree.set(7, std::numeric_limits<double>::denorm_min(), top_seq - 2);
  EXPECT_EQ(tree.top_machine(), 7u);
  tree.set(8, 0.0, top_seq - 3);
  EXPECT_EQ(tree.top_machine(), 8u);
  EXPECT_THROW(
      { sim::DepartureTree too_wide(sim::DepartureTree::kMaxMachines + 1); },
      Error);
}

}  // namespace
}  // namespace stormtune
