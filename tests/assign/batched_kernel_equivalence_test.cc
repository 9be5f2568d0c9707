// Batched/scalar equivalence net for the SoA distance kernels: on
// randomized instances, every consumer of the batched kernels — the
// precomputed distance cache, the fused diversity-edge emission, the
// dense QAP materialization, the rel[t][q] relevance table, the
// local-search tables, and the full HTA-APP / HTA-GRE solver pipelines
// — must reproduce the scalar per-pair reference of
// tests/reference/hta_reference.h bit for bit, at every thread cap.
// This is what lets the batched kernels be the only production path:
// they are a pure performance change, invisible to results.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "assign/local_search.h"
#include "core/distance_oracle.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "reference/hta_reference.h"
#include "util/rng.h"

namespace hta {
namespace {

// Force a multi-threaded global pool before first use so thread caps
// above 1 really fan out, even on single-core CI machines.
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

const DistanceKind kAllKinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                  DistanceKind::kHamming,
                                  DistanceKind::kCosineAngular};
const size_t kThreadCaps[] = {0, 1, 2, 4};

struct Instance {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

// Universe 100 by default on purpose: a tail block with 36 padding
// bits, so the batched kernels run against rows where the invariant
// actually matters, not just whole-block universes.
Instance MakeInstance(size_t num_tasks, size_t num_workers, uint64_t seed,
                      size_t universe = 100) {
  Rng rng(seed);
  Instance inst;
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(universe);
    const size_t bits = 2 + rng.NextBounded(8);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    inst.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(universe);
    for (int b = 0; b < 6; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    const double alpha = rng.NextDouble();
    inst.workers.emplace_back(q, std::move(v),
                              MotivationWeights{alpha, 1.0 - alpha});
  }
  return inst;
}

TEST(BatchedKernelEquivalenceTest, PrecomputedCacheBitIdentical) {
  ASSERT_TRUE(kForcePoolSize);
  for (const DistanceKind kind : kAllKinds) {
    for (const uint64_t seed : {101u, 102u}) {
      const Instance inst = MakeInstance(90, 4, seed);
      const size_t n = inst.tasks.size();
      const std::vector<float> scalar =
          reference::ScalarDistanceTriangle(inst.tasks, kind);
      for (const size_t cap : kThreadCaps) {
        auto batched = TaskDistanceOracle::Precomputed(
            &inst.tasks, kind, size_t{4} << 30, cap);
        ASSERT_TRUE(batched.ok());
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const double expect =
                i == j ? 0.0
                       : scalar[reference::TriangleIndex(
                             n, std::min(i, j), std::max(i, j))];
            ASSERT_EQ((*batched)(static_cast<TaskIndex>(i),
                                 static_cast<TaskIndex>(j)),
                      expect)
                << DistanceKindName(kind) << " cap " << cap << " pair ("
                << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

void ExpectSameEdges(const std::vector<WeightedEdge>& batched,
                     const std::vector<WeightedEdge>& scalar) {
  ASSERT_EQ(batched.size(), scalar.size());
  for (size_t e = 0; e < scalar.size(); ++e) {
    ASSERT_EQ(batched[e].u, scalar[e].u) << "edge " << e;
    ASSERT_EQ(batched[e].v, scalar[e].v) << "edge " << e;
    ASSERT_EQ(batched[e].weight, scalar[e].weight) << "edge " << e;
  }
}

TEST(BatchedKernelEquivalenceTest, DiversityEdgesBitIdentical) {
  for (const DistanceKind kind : kAllKinds) {
    for (const uint64_t seed : {111u, 112u}) {
      const Instance inst = MakeInstance(85, 3, seed);
      const TaskDistanceOracle oracle(&inst.tasks, kind);
      const std::vector<WeightedEdge> scalar =
          reference::ScalarDiversityEdges(oracle);
      for (const size_t cap : kThreadCaps) {
        SCOPED_TRACE(DistanceKindName(kind) + " cap " + std::to_string(cap));
        ExpectSameEdges(BuildDiversityEdges(oracle, cap), scalar);
      }
    }
  }
}

TEST(BatchedKernelEquivalenceTest, PrecomputedOracleBypassesBatchedPath) {
  // A precomputed oracle answers from its float cache; the edge scan
  // must read it entry by entry, not rebuild from keyword vectors (the
  // cache holds floats, the kernels doubles — bypassing would change
  // bits).
  const Instance inst = MakeInstance(60, 3, 121);
  auto pre = TaskDistanceOracle::Precomputed(&inst.tasks,
                                             DistanceKind::kJaccard);
  ASSERT_TRUE(pre.ok());
  const std::vector<WeightedEdge> scalar =
      reference::ScalarDiversityEdges(*pre);
  for (const size_t cap : kThreadCaps) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ExpectSameEdges(BuildDiversityEdges(*pre, cap), scalar);
  }
}

TEST(BatchedKernelEquivalenceTest, DenseQapMatricesBitIdentical) {
  for (const DistanceKind kind : kAllKinds) {
    for (const uint64_t seed : {131u, 132u}) {
      const Instance inst = MakeInstance(40, 3, seed);
      auto problem = HtaProblem::Create(&inst.tasks, &inst.workers,
                                        /*xmax=*/4, kind,
                                        /*allow_non_metric=*/true);
      ASSERT_TRUE(problem.ok());
      const QapView view(&*problem);
      const DenseQapMatrices scalar = reference::ScalarDenseQapMatrices(view);
      for (const size_t cap : kThreadCaps) {
        const DenseQapMatrices batched = DenseQapMatrices::FromView(view, cap);
        ASSERT_EQ(batched.n, scalar.n);
        EXPECT_EQ(batched.a, scalar.a) << DistanceKindName(kind) << " cap "
                                       << cap;
        EXPECT_EQ(batched.b, scalar.b) << DistanceKindName(kind) << " cap "
                                       << cap;
        EXPECT_EQ(batched.c, scalar.c) << DistanceKindName(kind) << " cap "
                                       << cap;
      }
    }
  }
}

TEST(BatchedKernelEquivalenceTest, RelevanceTableBitIdentical) {
  for (const DistanceKind kind : kAllKinds) {
    const Instance inst = MakeInstance(70, 5, 141);
    auto problem =
        HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/4, kind,
                           /*allow_non_metric=*/kind == DistanceKind::kDice);
    ASSERT_TRUE(problem.ok());
    const std::vector<double> scalar =
        reference::ScalarRelevanceTable(inst.tasks, inst.workers, kind);
    for (const size_t cap : kThreadCaps) {
      std::vector<double> batched;
      problem->FillRelevanceTable(&batched, cap);
      EXPECT_EQ(batched, scalar)
          << DistanceKindName(kind) << " cap " << cap;
    }
  }
}

class SolverBackendEquivalence : public ::testing::TestWithParam<LsapMethod> {
};

// The scalar side is a CreateWithMatrices problem over the reference
// matrices: its precomputed oracle sends the edge scan and the dense
// reads down their per-entry paths, and its relevance override replaces
// the rectangular sweep. Hamming distances over a 128-keyword universe
// are multiples of 1/128, exact in the oracle's float cache, so both
// problems answer every distance and relevance query with the same
// double and the whole pipeline must agree bit for bit. (stats.motivation
// is not compared: TotalMotivation derives relevance from keywords under
// the oracle's kind, which CreateWithMatrices records as Jaccard.)
TEST_P(SolverBackendEquivalence, AssignmentsBitIdenticalAcrossBackends) {
  constexpr size_t kUniverse = 128;
  for (const uint64_t seed : {151u, 152u, 153u}) {
    const Instance inst = MakeInstance(88, 4, seed, kUniverse);
    auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/5,
                                      DistanceKind::kHamming);
    ASSERT_TRUE(problem.ok());
    const std::vector<double> distances =
        reference::ScalarDistanceMatrix(inst.tasks, DistanceKind::kHamming);
    for (const double d : distances) {
      ASSERT_EQ(static_cast<double>(static_cast<float>(d)), d);
    }
    auto scalar_problem = HtaProblem::CreateWithMatrices(
        &inst.tasks, &inst.workers, /*xmax=*/5, distances,
        reference::ScalarRelevanceTable(inst.tasks, inst.workers,
                                        DistanceKind::kHamming));
    ASSERT_TRUE(scalar_problem.ok()) << scalar_problem.status();

    HtaSolverOptions options;
    options.lsap = GetParam();
    options.swap = SwapMode::kBestOfTwo;  // Deterministic swap phase.
    options.seed = seed;
    options.threads = 1;
    auto scalar = SolveHta(*scalar_problem, options);
    ASSERT_TRUE(scalar.ok());

    for (const size_t cap : kThreadCaps) {
      options.threads = cap;
      auto batched = SolveHta(*problem, options);
      ASSERT_TRUE(batched.ok());
      EXPECT_EQ(batched->assignment.bundles, scalar->assignment.bundles)
          << "threads " << cap;
      EXPECT_EQ(batched->stats.qap_objective, scalar->stats.qap_objective);
      EXPECT_EQ(batched->stats.optimum_upper_bound,
                scalar->stats.optimum_upper_bound);
      EXPECT_EQ(batched->stats.certified_ratio,
                scalar->stats.certified_ratio);
      EXPECT_EQ(batched->stats.matched_pairs, scalar->stats.matched_pairs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLsapMethods, SolverBackendEquivalence,
                         ::testing::Values(LsapMethod::kExactJv,
                                           LsapMethod::kGreedy,
                                           LsapMethod::kExactStructured),
                         [](const ::testing::TestParamInfo<LsapMethod>& info) {
                           switch (info.param) {
                             case LsapMethod::kExactJv:
                               return "jv";
                             case LsapMethod::kGreedy:
                               return "greedy";
                             case LsapMethod::kExactStructured:
                               return "rect";
                           }
                           return "unknown";
                         });

TEST(BatchedKernelEquivalenceTest, LocalSearchBitIdenticalAcrossBackends) {
  // The incremental tables take their rel[t][q] from the batched sweep;
  // the naive reference evaluates every probe with per-pair
  // TaskRelevance calls. Same tables, same moves, at every cap.
  const Instance inst = MakeInstance(60, 4, 161);
  auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/4);
  ASSERT_TRUE(problem.ok());
  auto seeded = SolveHtaGre(*problem, /*seed=*/161);
  ASSERT_TRUE(seeded.ok());
  const std::vector<double> scalar_rel = reference::ScalarRelevanceTable(
      inst.tasks, inst.workers, DistanceKind::kJaccard);

  LocalSearchOptions options;
  options.threads = 1;
  auto naive =
      reference::ImproveAssignmentNaive(*problem, seeded->assignment, options);
  ASSERT_TRUE(naive.ok());

  for (const size_t cap : kThreadCaps) {
    Assignment scratch = seeded->assignment;
    const BundleStatsCache cache(*problem, &scratch, cap);
    for (size_t t = 0; t < inst.tasks.size(); ++t) {
      for (size_t q = 0; q < inst.workers.size(); ++q) {
        ASSERT_EQ(cache.Relevance(static_cast<TaskIndex>(t),
                                  static_cast<WorkerIndex>(q)),
                  scalar_rel[t * inst.workers.size() + q])
            << "cap " << cap << " task " << t << " worker " << q;
      }
    }
    options.threads = cap;
    auto batched = ImproveAssignment(*problem, seeded->assignment, options);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batched->assignment.bundles, naive->assignment.bundles)
        << "threads " << cap;
    EXPECT_EQ(batched->motivation, naive->motivation);
    EXPECT_EQ(batched->improving_moves, naive->improving_moves);
    EXPECT_EQ(batched->passes, naive->passes);
  }
}

}  // namespace
}  // namespace hta
