#ifndef HTA_ASSIGN_LOCAL_SEARCH_PASSES_H_
#define HTA_ASSIGN_LOCAL_SEARCH_PASSES_H_

// Internal: the local-search pass loop, templated on the move
// evaluator. ImproveAssignment instantiates it with BundleStatsCache;
// reference evaluators (e.g. the naive from-scratch deltas the
// equivalence suites compare against) instantiate the very same scans,
// so both sides select moves by identical code. An evaluator provides
//   double ReplaceDelta(WorkerIndex, size_t pos, TaskIndex in) const;
//   double ExchangeDelta(WorkerIndex, size_t, WorkerIndex, size_t) const;
//   double InsertDelta(WorkerIndex, TaskIndex in) const;
//   void ApplyReplace(WorkerIndex, size_t pos, TaskIndex in);
//   void ApplyInsert(WorkerIndex, TaskIndex in);
//   double CachedTotalMotivation() const;
// with probes safe to issue concurrently.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "assign/auditor.h"
#include "assign/local_search.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace hta::local_search_internal {

/// Local-search observability. Probe counters are incremented once per
/// fixed scan block (never per thread), so totals are exact and
/// independent of HTA_THREADS; pass/move totals are folded in from the
/// result struct after the pass loop finishes.
struct LocalSearchMetrics {
  metrics::Counter runs{"local_search.runs"};
  metrics::Counter passes{"local_search.passes"};
  metrics::Counter moves_applied{"local_search.moves_applied"};
  metrics::Counter replace_probes{"local_search.replace_probes"};
  metrics::Counter exchange_probes{"local_search.exchange_probes"};
  metrics::Counter insert_probes{"local_search.insert_probes"};
  metrics::Histogram seconds{"local_search.seconds",
                             metrics::LatencyBucketsSeconds()};
};

inline LocalSearchMetrics& Lsm() {
  static LocalSearchMetrics* m = new LocalSearchMetrics();
  return *m;
}

/// Strict improvement threshold for replace/exchange moves.
inline constexpr double kImprovementEps = 1e-12;

/// Relative margin for argmax scans: a later candidate only displaces
/// the incumbent when its delta is better by this margin. Exact-
/// arithmetic ties between candidates (common with rational Jaccard /
/// Dice distances) can round to FP values that differ by a few ulps
/// between the incremental tables and a from-scratch evaluation; the
/// margin makes both evaluators resolve such ties to the same (lowest)
/// scan index, so the incremental search reproduces the naive
/// reference move-for-move.
inline constexpr double kTieRelTolerance = 1e-9;

/// Tolerant "strictly better" used by every best-candidate selection.
inline bool StrictlyBetter(double delta, double best) {
  const double scale = std::max({1.0, std::fabs(delta), std::fabs(best)});
  return delta > best + kTieRelTolerance * scale;
}

/// Sentinel candidate index for "no improving candidate found".
inline constexpr size_t kNoCandidate = static_cast<size_t>(-1);

/// Unassigned candidates per fixed block of a scan.
inline constexpr size_t kCandidateGrain = 128;

/// Partner workers per fixed block of an exchange scan.
inline constexpr size_t kWorkerScanGrain = 2;

/// Best replace/insert candidate of one scan row (delta, candidate
/// position in the unassigned list). Folding with StrictlyBetter in
/// ascending block order keeps the lowest index on (near-)ties.
struct BestCandidate {
  double delta = kImprovementEps;
  size_t index = kNoCandidate;
};

/// Best exchange partner of one scan row.
struct BestExchange {
  double delta = kImprovementEps;
  WorkerIndex q2 = 0;
  size_t p2 = kNoCandidate;
};

/// The argmax of delta(t) over the unassigned candidates, probed
/// concurrently in fixed blocks: the lowest index whose delta
/// StrictlyBetter-beats `floor` and every earlier candidate, or
/// kNoCandidate. Probes are counted once per block.
template <typename Delta>
BestCandidate BestUnassigned(const std::vector<TaskIndex>& unassigned,
                             double floor, metrics::Counter* probes,
                             size_t threads, Delta&& delta) {
  return ParallelReduce<BestCandidate>(
      0, unassigned.size(), kCandidateGrain,
      BestCandidate{floor, kNoCandidate},
      [&](size_t begin, size_t end) {
        probes->Add(end - begin);
        BestCandidate local{floor, kNoCandidate};
        for (size_t u = begin; u < end; ++u) {
          const double d = delta(unassigned[u]);
          if (StrictlyBetter(d, local.delta)) local = BestCandidate{d, u};
        }
        return local;
      },
      [](BestCandidate acc, BestCandidate partial) {
        return StrictlyBetter(partial.delta, acc.delta) ? partial : acc;
      },
      threads);
}

/// Replace scan: probe all candidates for one slot concurrently, apply
/// the best improving one, move to the next slot.
template <typename Eval>
bool ReplacePass(const HtaProblem& problem, const LocalSearchOptions& options,
                 Assignment* assignment, std::vector<TaskIndex>* unassigned,
                 Eval* eval, LocalSearchResult* result) {
  if (unassigned->empty()) return false;
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q = 0; q < worker_count; ++q) {
    TaskBundle& bundle = assignment->bundles[q];
    for (size_t pos = 0; pos < bundle.size(); ++pos) {
      const BestCandidate best = BestUnassigned(
          *unassigned, kImprovementEps, &Lsm().replace_probes,
          options.threads,
          [&](TaskIndex in) { return eval->ReplaceDelta(q, pos, in); });
      if (best.index == kNoCandidate) continue;
      const TaskIndex out = bundle[pos];
      eval->ApplyReplace(q, pos, (*unassigned)[best.index]);
      (*unassigned)[best.index] = out;
      result->applied_delta += best.delta;
      ++result->improving_moves;
      improved = true;
    }
  }
  return improved;
}

/// Exchange scan: for each source slot, probe every partner slot of
/// every later worker concurrently and apply the best improving swap.
template <typename Eval>
bool ExchangePass(const HtaProblem& problem, const LocalSearchOptions& options,
                  Assignment* assignment, Eval* eval,
                  LocalSearchResult* result) {
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q1 = 0; q1 + 1 < worker_count; ++q1) {
    TaskBundle& b1 = assignment->bundles[q1];
    for (size_t p1 = 0; p1 < b1.size(); ++p1) {
      const BestExchange best = ParallelReduce<BestExchange>(
          q1 + 1, worker_count, kWorkerScanGrain, BestExchange{},
          [&](size_t begin, size_t end) {
            BestExchange local;
            size_t block_probes = 0;
            for (size_t q2 = begin; q2 < end; ++q2) {
              const size_t b2_size = assignment->bundles[q2].size();
              block_probes += b2_size;
              for (size_t p2 = 0; p2 < b2_size; ++p2) {
                const double delta = eval->ExchangeDelta(
                    q1, p1, static_cast<WorkerIndex>(q2), p2);
                if (StrictlyBetter(delta, local.delta)) {
                  local =
                      BestExchange{delta, static_cast<WorkerIndex>(q2), p2};
                }
              }
            }
            Lsm().exchange_probes.Add(block_probes);
            return local;
          },
          [](BestExchange acc, BestExchange partial) {
            return StrictlyBetter(partial.delta, acc.delta) ? partial : acc;
          },
          options.threads);
      if (best.p2 == kNoCandidate) continue;
      TaskBundle& b2 = assignment->bundles[best.q2];
      const TaskIndex t1 = b1[p1];
      const TaskIndex t2 = b2[best.p2];
      eval->ApplyReplace(q1, p1, t2);
      eval->ApplyReplace(best.q2, best.p2, t1);
      result->applied_delta += best.delta;
      ++result->improving_moves;
      improved = true;
    }
  }
  return improved;
}

/// Insert scan: greedy best candidate with lowest-index ties. With
/// non-negative diversity and relevance an insert never hurts
/// (delta >= 0), so spare capacity is always filled; only strictly
/// positive deltas count as improving moves.
template <typename Eval>
bool InsertPass(const HtaProblem& problem, const LocalSearchOptions& options,
                Assignment* assignment, std::vector<TaskIndex>* unassigned,
                Eval* eval, LocalSearchResult* result) {
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q = 0; q < worker_count; ++q) {
    TaskBundle& bundle = assignment->bundles[q];
    while (bundle.size() < problem.xmax() && !unassigned->empty()) {
      const BestCandidate best = BestUnassigned(
          *unassigned, /*floor=*/-1.0, &Lsm().insert_probes, options.threads,
          [&](TaskIndex in) { return eval->InsertDelta(q, in); });
      if (best.index == kNoCandidate || best.delta < 0.0) break;
      eval->ApplyInsert(q, (*unassigned)[best.index]);
      (*unassigned)[best.index] = unassigned->back();
      unassigned->pop_back();
      result->applied_delta += best.delta;
      ++result->inserts_applied;
      if (best.delta > kImprovementEps) {
        ++result->improving_moves;
        improved = true;
      }
    }
  }
  return improved;
}

/// The pass loop. With `auditor` non-null, every completed pass is
/// validated: structure (C1/C2, index bounds) plus two independent
/// objective claims — the applied-delta accumulator and the
/// evaluator's cached sums — against the from-scratch Eq. 3 recompute.
template <typename Eval>
Status RunPasses(const HtaProblem& problem, const LocalSearchOptions& options,
                 Assignment* assignment, std::vector<TaskIndex>* unassigned,
                 Eval* eval, const AssignmentAuditor* auditor,
                 LocalSearchResult* result) {
  for (result->passes = 0; result->passes < options.max_passes;
       ++result->passes) {
    bool improved_this_pass = false;
    if (options.enable_replace) {
      const bool improved = ReplacePass(problem, options, assignment,
                                        unassigned, eval, result);
      improved_this_pass = improved || improved_this_pass;
    }
    if (options.enable_exchange) {
      const bool improved =
          ExchangePass(problem, options, assignment, eval, result);
      improved_this_pass = improved || improved_this_pass;
    }
    if (options.enable_insert) {
      const bool improved =
          InsertPass(problem, options, assignment, unassigned, eval, result);
      improved_this_pass = improved || improved_this_pass;
    }
    if (auditor != nullptr) {
      HTA_RETURN_IF_ERROR(auditor->Audit(
          *assignment, result->initial_motivation + result->applied_delta));
      HTA_RETURN_IF_ERROR(auditor->CheckObjective(
          *assignment, eval->CachedTotalMotivation()));
    }
    if (!improved_this_pass) {
      result->reached_local_optimum = true;
      break;
    }
  }
  return Status::OK();
}

/// ImproveAssignment with a caller-chosen evaluator: validates
/// `initial`, collects the unassigned tasks, builds the evaluator over
/// the result's assignment via make_eval(Assignment*), and runs the
/// passes (audited when HTA_AUDIT=1).
template <typename MakeEval>
Result<LocalSearchResult> ImproveWith(const HtaProblem& problem,
                                      const Assignment& initial,
                                      const LocalSearchOptions& options,
                                      MakeEval&& make_eval) {
  HTA_RETURN_IF_ERROR(ValidateAssignment(problem, initial));
  Lsm().runs.Add();
  trace::PhaseSpan improve_span("local_search.improve", &Lsm().seconds);

  LocalSearchResult result;
  result.assignment = initial;
  result.initial_motivation = TotalMotivation(problem, initial);

  std::vector<bool> assigned(problem.task_count(), false);
  for (const TaskBundle& b : result.assignment.bundles) {
    for (TaskIndex t : b) assigned[t] = true;
  }
  std::vector<TaskIndex> unassigned;
  for (size_t t = 0; t < problem.task_count(); ++t) {
    if (!assigned[t]) unassigned.push_back(static_cast<TaskIndex>(t));
  }

  const AssignmentAuditor auditor(problem);
  const AssignmentAuditor* audit = AuditEnabled() ? &auditor : nullptr;
  auto eval = make_eval(&result.assignment);
  HTA_RETURN_IF_ERROR(RunPasses(problem, options, &result.assignment,
                                &unassigned, &eval, audit, &result));

  Lsm().passes.Add(result.passes);
  Lsm().moves_applied.Add(result.improving_moves);
  result.motivation = TotalMotivation(problem, result.assignment);
  HTA_DCHECK(ValidateAssignment(problem, result.assignment).ok());
  return result;
}

}  // namespace hta::local_search_internal

#endif  // HTA_ASSIGN_LOCAL_SEARCH_PASSES_H_
