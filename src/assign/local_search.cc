#include "assign/local_search.h"

#include "assign/local_search_passes.h"
#include "util/parallel.h"

namespace hta {

namespace {

/// Tasks per fixed block of the incremental div_sum table updates.
constexpr size_t kTableGrain = 256;

}  // namespace

BundleStatsCache::BundleStatsCache(const HtaProblem& problem,
                                   Assignment* assignment, size_t max_threads)
    : problem_(&problem),
      assignment_(assignment),
      max_threads_(max_threads),
      task_count_(problem.task_count()),
      worker_count_(problem.worker_count()) {
  const TaskDistanceOracle& d = problem.oracle();
  problem.FillRelevanceTable(&rel_, max_threads_);
  div_sum_.assign(worker_count_ * task_count_, 0.0);
  bundle_div_.assign(worker_count_, 0.0);
  bundle_rel_.assign(worker_count_, 0.0);
  for (size_t q = 0; q < worker_count_; ++q) {
    const TaskBundle& bundle = assignment_->bundles[q];
    ParallelFor(
        0, task_count_, kTableGrain,
        [&](size_t t) {
          double sum = 0.0;
          for (TaskIndex m : bundle) sum += d(static_cast<TaskIndex>(t), m);
          div_sum_[q * task_count_ + t] = sum;
        },
        max_threads_);
    bundle_div_[q] = SetDiversity(bundle, d);
    double rel_sum = 0.0;
    for (TaskIndex m : bundle) {
      rel_sum += rel_[static_cast<size_t>(m) * worker_count_ + q];
    }
    bundle_rel_[q] = rel_sum;
  }
}

double BundleStatsCache::ReplaceDelta(WorkerIndex worker, size_t pos,
                                      TaskIndex in) const {
  const TaskBundle& bundle = assignment_->bundles[worker];
  HTA_DCHECK_LT(pos, bundle.size());
  const TaskIndex out = bundle[pos];
  const MotivationWeights& w = problem_->workers()[worker].weights();
  const double* row = div_sum_.data() + static_cast<size_t>(worker) *
                                            task_count_;
  // Σ_{m != pos} d(in, m) = div_sum[in] - d(in, out);
  // Σ_{m != pos} d(out, m) = div_sum[out]  (d(out, out) = 0).
  const double diversity_delta =
      (row[in] - problem_->oracle()(in, out)) - row[out];
  const double relevance_delta =
      rel_[static_cast<size_t>(in) * worker_count_ + worker] -
      rel_[static_cast<size_t>(out) * worker_count_ + worker];
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * w.alpha * diversity_delta +
         w.beta * size_minus_one * relevance_delta;
}

double BundleStatsCache::ExchangeDelta(WorkerIndex q1, size_t p1,
                                       WorkerIndex q2, size_t p2) const {
  const TaskBundle& b1 = assignment_->bundles[q1];
  const TaskBundle& b2 = assignment_->bundles[q2];
  return ReplaceDelta(q1, p1, b2[p2]) + ReplaceDelta(q2, p2, b1[p1]);
}

double BundleStatsCache::InsertDelta(WorkerIndex worker, TaskIndex in) const {
  const TaskBundle& bundle = assignment_->bundles[worker];
  const MotivationWeights& w = problem_->workers()[worker].weights();
  const double diversity_gain =
      div_sum_[static_cast<size_t>(worker) * task_count_ + in];
  const double rel_in = rel_[static_cast<size_t>(in) * worker_count_ + worker];
  // after - before simplifies to a subtraction-free form — with
  // non-negative distances and relevance the delta is >= 0 even in
  // floating point, so inserts can never appear to hurt:
  //   2α·Σ_m d(in, m) + β·(TR(T') + |T'|·rel(in)).
  return 2.0 * w.alpha * diversity_gain +
         w.beta * (bundle_rel_[worker] +
                   static_cast<double>(bundle.size()) * rel_in);
}

void BundleStatsCache::ApplyReplace(WorkerIndex worker, size_t pos,
                                    TaskIndex in) {
  TaskBundle& bundle = assignment_->bundles[worker];
  HTA_DCHECK_LT(pos, bundle.size());
  const TaskIndex out = bundle[pos];
  const TaskDistanceOracle& d = problem_->oracle();
  double* row = div_sum_.data() + static_cast<size_t>(worker) * task_count_;
  bundle_div_[worker] += (row[in] - d(in, out)) - row[out];
  bundle_rel_[worker] +=
      rel_[static_cast<size_t>(in) * worker_count_ + worker] -
      rel_[static_cast<size_t>(out) * worker_count_ + worker];
  ParallelFor(
      0, task_count_, kTableGrain,
      [&](size_t t) {
        row[t] += d(static_cast<TaskIndex>(t), in) -
                  d(static_cast<TaskIndex>(t), out);
      },
      max_threads_);
  bundle[pos] = in;
}

double BundleStatsCache::CachedTotalMotivation() const {
  double total = 0.0;
  for (size_t q = 0; q < worker_count_; ++q) {
    const MotivationWeights& w = problem_->workers()[q].weights();
    const double size =
        static_cast<double>(assignment_->bundles[q].size());
    total += 2.0 * w.alpha * bundle_div_[q] +
             w.beta * (size - 1.0) * bundle_rel_[q];
  }
  return total;
}

void BundleStatsCache::ApplyInsert(WorkerIndex worker, TaskIndex in) {
  TaskBundle& bundle = assignment_->bundles[worker];
  const TaskDistanceOracle& d = problem_->oracle();
  double* row = div_sum_.data() + static_cast<size_t>(worker) * task_count_;
  bundle_div_[worker] += row[in];
  bundle_rel_[worker] += rel_[static_cast<size_t>(in) * worker_count_ + worker];
  ParallelFor(
      0, task_count_, kTableGrain,
      [&](size_t t) { row[t] += d(static_cast<TaskIndex>(t), in); },
      max_threads_);
  bundle.push_back(in);
}

Result<LocalSearchResult> ImproveAssignment(
    const HtaProblem& problem, const Assignment& initial,
    const LocalSearchOptions& options) {
  return local_search_internal::ImproveWith(
      problem, initial, options, [&](Assignment* assignment) {
        return BundleStatsCache(problem, assignment, options.threads);
      });
}

}  // namespace hta
