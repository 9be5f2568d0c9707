// Cache-budget engine equivalence: AssignmentServices over the same
// catalog — one with full catalog caches (persistent distance triangle
// plus per-session relevance rows), one with both budgets at zero
// (packed rows only: every distance recomputed per query, every
// relevance table swept per iteration) — are driven through an
// identical scripted deployment and must stay EXPECT_EQ-identical at
// every observable step: displayed bundles after every registration and
// completion, weight estimates, pool state, and the full
// iteration-record stream (bit-identical objectives). The script is
// exercised across every DistanceKind (including the non-metric Dice)
// and several solver thread caps. Instance-level equivalence of subset
// views and copied tasks (CreateFromSubset vs Create) is pinned in
// core/catalog_cache_test.
//
// The service is configured only through its options: the environment
// variables that used to override them must leave a deployment
// untouched.
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/assignment_service.h"
#include "util/rng.h"

namespace hta {
namespace {

std::vector<Task> RandomCatalog(size_t n, size_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KeywordVector v(universe);
    const size_t bits = 1 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    tasks.emplace_back(i, v);
  }
  return tasks;
}

std::vector<KeywordVector> RandomInterests(size_t count, size_t universe,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<KeywordVector> out;
  for (size_t w = 0; w < count; ++w) {
    KeywordVector v(universe);
    for (size_t b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    out.push_back(v);
  }
  return out;
}

/// Everything a deployment exposes, recorded after every registration,
/// completion and departure of the script below.
struct DeploymentTrace {
  std::vector<std::vector<size_t>> displays;
  std::vector<double> weights;       // alpha, beta per live worker.
  std::vector<size_t> pool_counts;   // available, completed.
  std::vector<IterationRecord> iterations;
};

/// Registers one worker per interest vector, then for `rounds` rounds
/// every live worker completes the front of their display `per_round`
/// times; the last worker departs after round 1.
DeploymentTrace RunScript(const std::vector<Task>& catalog,
                          const std::vector<KeywordVector>& interests,
                          const AssignmentServiceOptions& options,
                          size_t rounds, size_t per_round) {
  AssignmentService service(&catalog, options);
  DeploymentTrace trace;
  std::vector<uint64_t> ids;
  const auto snapshot = [&] {
    for (uint64_t id : ids) {
      trace.displays.push_back(service.Displayed(id));
      const MotivationWeights w = service.CurrentWeights(id);
      trace.weights.push_back(w.alpha);
      trace.weights.push_back(w.beta);
    }
    trace.pool_counts.push_back(service.pool().available_count());
    trace.pool_counts.push_back(service.pool().completed_count());
  };
  for (const KeywordVector& v : interests) {
    ids.push_back(service.RegisterWorker(v));
    snapshot();
  }
  for (size_t round = 0; round < rounds; ++round) {
    for (uint64_t id : ids) {
      for (size_t c = 0; c < per_round; ++c) {
        const std::vector<size_t> displayed = service.Displayed(id);
        if (displayed.empty()) break;
        EXPECT_TRUE(service.NotifyCompleted(id, displayed.front()).ok());
        snapshot();
      }
    }
    if (round == 1 && ids.size() > 1) {
      // A mid-deployment departure must not disturb equivalence.
      service.Deregister(ids.back());
      ids.pop_back();
      snapshot();
    }
  }
  trace.iterations = service.iterations();
  return trace;
}

/// Step-for-step identity; timings are the only fields allowed to
/// differ.
void ExpectSameTrace(const DeploymentTrace& a, const DeploymentTrace& b) {
  EXPECT_EQ(a.displays, b.displays);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.pool_counts, b.pool_counts);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    const IterationRecord& x = a.iterations[i];
    const IterationRecord& y = b.iterations[i];
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.worker_count, y.worker_count);
    EXPECT_EQ(x.task_count, y.task_count);
    EXPECT_EQ(x.motivation, y.motivation) << "iteration " << i;
    EXPECT_EQ(x.warm_seeded, y.warm_seeded) << "iteration " << i;
    EXPECT_EQ(x.carried_tasks, y.carried_tasks) << "iteration " << i;
    EXPECT_EQ(x.repaired_slots, y.repaired_slots) << "iteration " << i;
  }
}

class WarmColdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DistanceKind, size_t>> {};

TEST_P(WarmColdEquivalenceTest, ScriptedDeploymentIsBitIdentical) {
  const DistanceKind kind = std::get<0>(GetParam());
  const size_t solver_threads = std::get<1>(GetParam());
  constexpr size_t kUniverse = 70;
  const auto catalog = RandomCatalog(260, kUniverse, 21);
  const auto interests = RandomInterests(4, kUniverse, 22);

  AssignmentServiceOptions full;
  full.strategy = StrategyKind::kHtaGre;
  full.metric = kind;
  full.xmax = 5;
  full.extra_random_tasks = 2;
  full.refresh_after_completions = 3;
  full.min_batch_workers = 2;
  full.max_tasks_per_iteration = 40;  // << catalog: sampling path.
  full.solver_threads = solver_threads;
  full.seed = 77;
  AssignmentServiceOptions bare = full;
  bare.warm_distance_cache_bytes = 0;
  bare.session_relevance_bytes = 0;
  {
    const AssignmentService full_service(&catalog, full);
    const AssignmentService bare_service(&catalog, bare);
    ASSERT_TRUE(full_service.catalog_cache().distance_cache_enabled());
    ASSERT_NE(full_service.session_relevance(), nullptr);
    ASSERT_FALSE(bare_service.catalog_cache().distance_cache_enabled());
    ASSERT_EQ(bare_service.session_relevance(), nullptr);
  }

  const DeploymentTrace full_trace =
      RunScript(catalog, interests, full, /*rounds=*/4, /*per_round=*/2);
  const DeploymentTrace bare_trace =
      RunScript(catalog, interests, bare, /*rounds=*/4, /*per_round=*/2);
  ASSERT_FALSE(full_trace.iterations.empty());
  ExpectSameTrace(full_trace, bare_trace);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndThreadCaps, WarmColdEquivalenceTest,
    ::testing::Combine(::testing::Values(DistanceKind::kJaccard,
                                         DistanceKind::kDice,
                                         DistanceKind::kHamming,
                                         DistanceKind::kCosineAngular),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<DistanceKind, size_t>>&
           info) {
      std::string name = DistanceKindName(std::get<0>(info.param)) +
                         "_threads" + std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // "cosine-angular" -> valid gtest name.
      }
      return name;
    });

// A zero distance budget alone (session rows kept) degrades to the
// packed-rows-only triangle and must still match the full caches.
TEST(WarmColdEquivalenceTest, ZeroDistanceBudgetStaysEquivalent) {
  constexpr size_t kUniverse = 40;
  const auto catalog = RandomCatalog(120, kUniverse, 31);
  const auto interests = RandomInterests(2, kUniverse, 32);

  AssignmentServiceOptions full;
  full.xmax = 4;
  full.extra_random_tasks = 1;
  full.refresh_after_completions = 2;
  full.max_tasks_per_iteration = 30;
  full.seed = 7;
  AssignmentServiceOptions zero_budget = full;
  zero_budget.warm_distance_cache_bytes = 0;  // Packed rows only.
  {
    const AssignmentService probe(&catalog, zero_budget);
    EXPECT_FALSE(probe.catalog_cache().distance_cache_enabled());
    EXPECT_NE(probe.session_relevance(), nullptr);
  }

  ExpectSameTrace(
      RunScript(catalog, interests, full, /*rounds=*/6, /*per_round=*/1),
      RunScript(catalog, interests, zero_budget, /*rounds=*/6,
                /*per_round=*/1));
}

/// Sets (or clears, with nullptr) an environment variable for one
/// scope, restoring the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

// The service reads no option from the environment: the variables that
// once forced the cold path, zeroed the cache budgets or switched warm
// start on change nothing about a default-options deployment — set one
// at a time or all at once.
TEST(WarmColdEquivalenceTest, EnvironmentDoesNotOverrideOptions) {
  constexpr size_t kUniverse = 60;
  const auto catalog = RandomCatalog(200, kUniverse, 41);
  const auto interests = RandomInterests(4, kUniverse, 42);
  const AssignmentServiceOptions options;
  const std::pair<const char*, const char*> kOverrides[] = {
      {"HTA_WARM_START", "1"},
      {"HTA_WARM_CACHE", "0"},
      {"HTA_WARM_CACHE_BYTES", "0"},
      {"HTA_SESSION_REL_BYTES", "0"}};
  const auto run = [&] {
    const AssignmentService probe(&catalog, options);
    EXPECT_FALSE(probe.options().warm_start);
    EXPECT_EQ(probe.options().warm_distance_cache_bytes,
              options.warm_distance_cache_bytes);
    EXPECT_EQ(probe.options().session_relevance_bytes,
              options.session_relevance_bytes);
    EXPECT_NE(probe.session_relevance(), nullptr);
    return RunScript(catalog, interests, options, /*rounds=*/4,
                     /*per_round=*/3);
  };

  std::vector<std::unique_ptr<ScopedEnv>> env;
  for (const auto& [name, value] : kOverrides) {
    env.push_back(std::make_unique<ScopedEnv>(name, nullptr));
  }
  const DeploymentTrace clean = run();
  ASSERT_FALSE(clean.iterations.empty());
  for (const auto& [name, value] : kOverrides) {
    SCOPED_TRACE(std::string(name) + "=" + value);
    const ScopedEnv one(name, value);
    ExpectSameTrace(clean, run());
  }
  for (const auto& [name, value] : kOverrides) {
    env.push_back(std::make_unique<ScopedEnv>(name, value));
  }
  SCOPED_TRACE("all four set");
  ExpectSameTrace(clean, run());
}

}  // namespace
}  // namespace hta
