#ifndef HTA_TESTS_REFERENCE_HTA_REFERENCE_H_
#define HTA_TESTS_REFERENCE_HTA_REFERENCE_H_

// Reference implementations the production paths are pinned against.
// They are deliberately the slow, obvious versions: per-pair
// PairwiseTaskDiversity / TaskRelevance calls instead of the batched
// popcount kernels of core/packed_set.h, and from-scratch move deltas
// instead of the incremental BundleStatsCache tables. Equivalence
// suites compare production results against these bit for bit; the
// kernel and local-search benches time production against them.

#include <cstddef>
#include <vector>

#include "assign/local_search.h"
#include "core/distance_oracle.h"
#include "matching/matching_types.h"
#include "qap/qap_view.h"

namespace hta::reference {

// ---------------------------------------------------------------------------
// Scalar distance paths.

/// Packed strict-upper-triangle index of pair (i, j), i < j, in the
/// layout of TaskDistanceOracle::Precomputed's cache.
inline size_t TriangleIndex(size_t n, size_t i, size_t j) {
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

/// The precomputed-cache fill by per-pair scalar calls:
/// out[TriangleIndex(n, i, j)] = float(PairwiseTaskDiversity(i, j)).
/// Parallel over row blocks of the global pool (`max_threads` caps it);
/// each row owns a disjoint segment, so any cap gives the same floats.
std::vector<float> ScalarDistanceTriangle(const std::vector<Task>& tasks,
                                          DistanceKind kind,
                                          size_t max_threads = 0);

/// Dense row-major |T| x |T| PairwiseTaskDiversity matrix (zero
/// diagonal) — the `distances` input of HtaProblem::CreateWithMatrices.
std::vector<double> ScalarDistanceMatrix(const std::vector<Task>& tasks,
                                         DistanceKind kind);

/// Row-major |T| x |W| TaskRelevance table — the layout of
/// HtaProblem::FillRelevanceTable and the `relevance` input of
/// CreateWithMatrices.
std::vector<double> ScalarRelevanceTable(const std::vector<Task>& tasks,
                                         const std::vector<Worker>& workers,
                                         DistanceKind kind);

/// The positive-weight diversity edges of `d` by per-pair oracle calls,
/// serial row-major — the order BuildDiversityEdges must reproduce.
std::vector<WeightedEdge> ScalarDiversityEdges(const TaskDistanceOracle& d);

/// A, B and C materialized entry by entry from the implicit view.
DenseQapMatrices ScalarDenseQapMatrices(const QapView& view);

// ---------------------------------------------------------------------------
// Naive local-search evaluation.

/// Objective change from replacing bundle[pos] with `in`, recomputed
/// from the bundle: O(|bundle|) oracle calls.
double NaiveReplaceDelta(const HtaProblem& problem, const TaskBundle& bundle,
                         size_t pos, TaskIndex in, WorkerIndex worker);

/// Objective change from appending `in`: two full Motivation()
/// evaluations plus a bundle copy, O(|bundle|²).
double NaiveInsertDelta(const HtaProblem& problem, const TaskBundle& bundle,
                        TaskIndex in, WorkerIndex worker);

/// ImproveAssignment with an evaluator built on the two naive deltas:
/// the production pass loop of assign/local_search_passes.h (same
/// scans, same tie-breaking) over from-scratch move deltas.
Result<LocalSearchResult> ImproveAssignmentNaive(
    const HtaProblem& problem, const Assignment& initial,
    const LocalSearchOptions& options);

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_HTA_REFERENCE_H_
