// Tests for the STORMTUNE_CHECKED invariant layer (common/check.hpp).
//
// Two contracts are pinned here:
//
//  1. Release builds compile the macros out entirely — the condition
//     expression is never evaluated, so checks can be as expensive as they
//     like without taxing the measured configurations.
//
//  2. Checked builds (-DSTORMTUNE_CHECKED=ON) turn internal-state
//     corruption into an InvariantError at the next verification point:
//     a DepartureTree node that is not the min of its children or a key
//     past its machine count, non-finite input reaching the Cholesky, and
//     a damaged simulator workspace between reuse runs. InvariantError deliberately does NOT derive
//     from stormtune::Error, so the GP's jitter-escalation retry (which
//     catches Error) can never swallow an invariant failure.
//
// Corruption-dependent tests GTEST_SKIP in release builds; the compile-out
// test and the non-SPD contract run in both configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "gp/kernel.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "stormsim/departure_tree.hpp"
#include "stormsim/engine.hpp"

namespace stormtune {
namespace {

TEST(CheckedBuild, MacrosCompileOutOfReleaseBuilds) {
  int evaluations = 0;
  auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
  STORMTUNE_DCHECK(probe(), "never fires: probe returns true");
  STORMTUNE_INVARIANT(probe(), "never fires: probe returns true");
  if constexpr (kCheckedBuild) {
    EXPECT_EQ(evaluations, 2) << "checked build must evaluate conditions";
  } else {
    EXPECT_EQ(evaluations, 0)
        << "release build must not evaluate check conditions at all";
  }
}

TEST(CheckedBuild, InvariantErrorBypassesErrorHandlers) {
#ifdef STORMTUNE_CHECKED
  try {
    STORMTUNE_INVARIANT(1 + 1 == 3, "arithmetic is broken");
    FAIL() << "invariant failure did not throw";
  } catch (const InvariantError& e) {
    // Must NOT be catchable as stormtune::Error: the GP retry loops catch
    // Error to escalate jitter, and corruption must never look like a
    // recoverable numeric failure.
    EXPECT_EQ(dynamic_cast<const Error*>(&e), nullptr);
    const std::string what = e.what();
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos);
    EXPECT_NE(what.find("invariant"), std::string::npos);
  }
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(CheckedBuild, DepartureTreeDetectsInternalNodeCorruption) {
#ifdef STORMTUNE_CHECKED
  sim::DepartureTree tree(8);
  for (std::size_t m = 0; m < 8; ++m) {
    tree.set(m, static_cast<double>(m), m);
  }
  EXPECT_NO_THROW(tree.checked_verify());
  // Damage an internal node without replaying its path: it no longer
  // equals the minimum of its children.
  tree.checked_corrupt_node_for_test(2);
  EXPECT_THROW(tree.checked_verify(), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(CheckedBuild, DepartureTreeDetectsKeyPastTheMachineCount) {
#ifdef STORMTUNE_CHECKED
  sim::DepartureTree tree(5);  // eight leaves, three of them padding
  tree.set(0, 3.0, 0);
  tree.set(4, 1.0, 1);
  EXPECT_NO_THROW(tree.checked_verify());
  // A key in a padding leaf, with its path replayed so every internal node
  // is consistent: only the padding check can see it.
  tree.checked_set_leaf_for_test(6, 2.0, 2);
  try {
    tree.checked_verify();
    FAIL() << "a key past the machine count went unnoticed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("past the machine count"),
              std::string::npos)
        << e.what();
  }
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(CheckedBuild, CholeskyRejectsNonFiniteInput) {
#ifdef STORMTUNE_CHECKED
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Cholesky c(a), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(CheckedBuild, CholeskyAppendRowRejectsNonFiniteInput) {
#ifdef STORMTUNE_CHECKED
  Cholesky c(Matrix::identity(2));
  const std::vector<double> bad = {0.1,
                                   std::numeric_limits<double>::infinity()};
  EXPECT_THROW(c.append_row(bad, 2.0), InvariantError);
  const std::vector<double> ok = {0.1, 0.2};
  EXPECT_THROW(c.append_row(ok, std::numeric_limits<double>::quiet_NaN()),
               InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

// Non-SPD input is a RECOVERABLE numeric condition, not corruption: the GP
// retries with escalated jitter. The checked build must preserve that
// contract — same Error type in both configurations.
TEST(CheckedBuild, CholeskyNonSpdRemainsRecoverableError) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // det = -3: indefinite
  EXPECT_THROW(Cholesky c(a), Error);
}

TEST(CheckedBuild, KernelBatchAgreementSamplingAcceptsHonestTransform) {
  // The checked build re-evaluates sampled elements through the scalar
  // form; the real batch transform must sit inside its tolerance for
  // every family (exercises the sampling path itself in checked builds).
  using gp::KernelFamily;
  for (const KernelFamily family :
       {KernelFamily::kSquaredExponential, KernelFamily::kMatern32,
        KernelFamily::kMatern52}) {
    std::vector<double> buf = {0.0, 0.25, 1.0, 2.5, 9.0, 40.0, 300.0};
    EXPECT_NO_THROW(linalg_kernels::ops().correlation(family, 1.7, buf.data(),
                                                      buf.size()));
    for (const double v : buf) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(CheckedBuild, SimulatorDetectsFreeListCorruptionOnReuse) {
#ifdef STORMTUNE_CHECKED
  sim::Topology t;
  const auto s = t.add_spout("S", 20.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  cluster.cores_per_machine = 4;
  cluster.workers_per_machine = 1;
  sim::SimParams params;
  params.duration_s = 5.0;
  params.throughput_noise_sd = 0.0;
  sim::TopologyConfig config = sim::uniform_hint_config(t, 2);
  config.batch_size = 20;
  config.batch_parallelism = 2;

  sim::Simulator simulator;
  ASSERT_NO_THROW(simulator.run(t, config, cluster, params, 7));
  sim::testing::corrupt_job_free_list(simulator);
  EXPECT_THROW(simulator.run(t, config, cluster, params, 7), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(CheckedBuild, SimulatorDetectsDepartureIndexCorruptionOnReuse) {
#ifdef STORMTUNE_CHECKED
  sim::Topology t;
  const auto s = t.add_spout("S", 20.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  cluster.cores_per_machine = 4;
  cluster.workers_per_machine = 1;
  sim::SimParams params;
  params.duration_s = 5.0;
  params.throughput_noise_sd = 0.0;
  sim::TopologyConfig config = sim::uniform_hint_config(t, 2);
  config.batch_size = 20;
  config.batch_parallelism = 2;

  sim::Simulator simulator;
  ASSERT_NO_THROW(simulator.run(t, config, cluster, params, 7));
  sim::testing::corrupt_departure_index(simulator);
  EXPECT_THROW(simulator.run(t, config, cluster, params, 7), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

}  // namespace
}  // namespace stormtune
