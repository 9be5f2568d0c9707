#include "reference/hta_reference.h"

#include "assign/local_search_passes.h"
#include "core/motivation.h"
#include "util/parallel.h"

namespace hta::reference {

std::vector<float> ScalarDistanceTriangle(const std::vector<Task>& tasks,
                                          DistanceKind kind,
                                          size_t max_threads) {
  const size_t n = tasks.size();
  std::vector<float> cache(n >= 2 ? n * (n - 1) / 2 : 0);
  // Small row grain keeps the (shrinking) rows of the triangle
  // balanced across blocks.
  ParallelFor(
      0, n, /*grain=*/16,
      [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          size_t at = TriangleIndex(n, i, i + 1);
          for (size_t j = i + 1; j < n; ++j) {
            cache[at++] = static_cast<float>(
                PairwiseTaskDiversity(kind, tasks[i], tasks[j]));
          }
        }
      },
      max_threads);
  return cache;
}

std::vector<double> ScalarDistanceMatrix(const std::vector<Task>& tasks,
                                         DistanceKind kind) {
  const size_t n = tasks.size();
  std::vector<double> matrix(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        matrix[i * n + j] = PairwiseTaskDiversity(kind, tasks[i], tasks[j]);
      }
    }
  }
  return matrix;
}

std::vector<double> ScalarRelevanceTable(const std::vector<Task>& tasks,
                                         const std::vector<Worker>& workers,
                                         DistanceKind kind) {
  std::vector<double> rel(tasks.size() * workers.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t q = 0; q < workers.size(); ++q) {
      rel[t * workers.size() + q] = TaskRelevance(kind, tasks[t], workers[q]);
    }
  }
  return rel;
}

std::vector<WeightedEdge> ScalarDiversityEdges(const TaskDistanceOracle& d) {
  const size_t n = d.task_count();
  std::vector<WeightedEdge> edges;
  if (n < 2) return edges;
  edges.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const float w = static_cast<float>(
          d(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j)));
      if (w > 0.0f) {
        edges.push_back(WeightedEdge{static_cast<VertexId>(i),
                                     static_cast<VertexId>(j), w});
      }
    }
  }
  return edges;
}

DenseQapMatrices ScalarDenseQapMatrices(const QapView& view) {
  DenseQapMatrices m;
  m.n = view.n();
  m.a.resize(m.n * m.n);
  m.b.resize(m.n * m.n);
  m.c.resize(m.n * m.n);
  for (size_t k = 0; k < m.n; ++k) {
    for (size_t l = 0; l < m.n; ++l) {
      m.a[k * m.n + l] = view.A(k, l);
      m.b[k * m.n + l] = view.B(k, l);
      m.c[k * m.n + l] = view.C(k, l);
    }
  }
  return m;
}

double NaiveReplaceDelta(const HtaProblem& problem, const TaskBundle& bundle,
                         size_t pos, TaskIndex in, WorkerIndex worker) {
  const TaskIndex out = bundle[pos];
  const Worker& w = problem.workers()[worker];
  const TaskDistanceOracle& d = problem.oracle();
  double diversity_delta = 0.0;
  for (size_t m = 0; m < bundle.size(); ++m) {
    if (m == pos) continue;
    diversity_delta += d(in, bundle[m]) - d(out, bundle[m]);
  }
  const double relevance_delta =
      problem.Relevance(in, worker) - problem.Relevance(out, worker);
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * w.weights().alpha * diversity_delta +
         w.weights().beta * size_minus_one * relevance_delta;
}

double NaiveInsertDelta(const HtaProblem& problem, const TaskBundle& bundle,
                        TaskIndex in, WorkerIndex worker) {
  const Worker& w = problem.workers()[worker];
  const double before = Motivation(bundle, w, problem.oracle());
  TaskBundle grown = bundle;
  grown.push_back(in);
  const double after = Motivation(grown, w, problem.oracle());
  return after - before;
}

namespace {

/// Move evaluator backed by the naive deltas: every probe recomputes
/// from the bundles, so Apply* only mutate the assignment.
class NaiveEvaluator {
 public:
  NaiveEvaluator(const HtaProblem* problem, Assignment* assignment)
      : problem_(problem), assignment_(assignment) {}

  double ReplaceDelta(WorkerIndex worker, size_t pos, TaskIndex in) const {
    return NaiveReplaceDelta(*problem_, assignment_->bundles[worker], pos, in,
                             worker);
  }

  double ExchangeDelta(WorkerIndex q1, size_t p1, WorkerIndex q2,
                       size_t p2) const {
    const TaskBundle& b1 = assignment_->bundles[q1];
    const TaskBundle& b2 = assignment_->bundles[q2];
    return NaiveReplaceDelta(*problem_, b1, p1, b2[p2], q1) +
           NaiveReplaceDelta(*problem_, b2, p2, b1[p1], q2);
  }

  double InsertDelta(WorkerIndex worker, TaskIndex in) const {
    return NaiveInsertDelta(*problem_, assignment_->bundles[worker], in,
                            worker);
  }

  void ApplyReplace(WorkerIndex worker, size_t pos, TaskIndex in) {
    assignment_->bundles[worker][pos] = in;
  }

  void ApplyInsert(WorkerIndex worker, TaskIndex in) {
    assignment_->bundles[worker].push_back(in);
  }

  /// There are no incremental tables: the "cached" objective is the
  /// from-scratch recompute, so the per-pass audit degenerates to
  /// checking the applied-delta accumulator.
  double CachedTotalMotivation() const {
    return TotalMotivation(*problem_, *assignment_);
  }

 private:
  const HtaProblem* problem_;
  Assignment* assignment_;
};

}  // namespace

Result<LocalSearchResult> ImproveAssignmentNaive(
    const HtaProblem& problem, const Assignment& initial,
    const LocalSearchOptions& options) {
  return local_search_internal::ImproveWith(
      problem, initial, options, [&](Assignment* assignment) {
        return NaiveEvaluator(&problem, assignment);
      });
}

}  // namespace hta::reference
