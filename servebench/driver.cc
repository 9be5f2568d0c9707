// Serving benchmark driver: the Fig. 4 loop (register -> display ->
// complete -> re-estimate -> re-solve) of one unsharded
// AssignmentService, driven by the library's own discrete-event crowd
// (sim_internal::RunDeploymentLoop with BehavioralWorkers) in virtual
// time. The loop is closed — each call is issued after the previous one
// returns — so every latency is a service time without queueing, and
// completions_per_s is the saturation capacity of one service process.
//
//   servebench_driver --workload NAME --seed N --seconds S --trace 0|1
//   servebench_driver --workload NAME --seed N --digest-only
//
// --trace 0 repeats whole deployments over the seed's inputs until S
// seconds of deployment wall time are measured and prints the
// end-to-end metrics. --trace 1 runs one deployment and then replays
// each layer's public calls on the inputs recorded in that run (event
// log, registered interests, iteration shapes) for the per-layer
// metrics. --digest-only prints the deterministic digest of one
// deployment, for the cross-thread-count comparison in run.py.
//
// Every deployment is checked (see CheckRound); a failed check prints
// "correct": false. The last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <string>
#include <unordered_map>
#include <vector>

#include "assign/assignment.h"
#include "assign/baselines.h"
#include "assign/hta_solver.h"
#include "core/catalog_cache.h"
#include "engine/assignment_service.h"
#include "engine/event_log.h"
#include "engine/motivation_estimator.h"
#include "engine/session_relevance_cache.h"
#include "engine/task_pool.h"
#include "eq3_reference.h"
#include "matching/lsap.h"
#include "matching/max_weight_matching.h"
#include "qap/hta_problem.h"
#include "qap/qap_view.h"
#include "sim/behavior.h"
#include "sim/catalog.h"
#include "sim/concurrent_deployment.h"
#include "sim/deployment_loop.h"
#include "sim/worker_gen.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace hta;
using servebench::KeywordSet;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads. Only the paper's deployment parameters are set (Xmax = 15,
// 5 random extras and refresh after 5 completions are the service
// defaults); every performance knob stays at its library default.

struct Workload {
  const char* name;
  size_t groups;
  size_t tasks_per_group;
  size_t vocabulary;
  double zipf;
  double group_affinity;
  size_t workers;          // Sessions per deployment.
  double arrivals_per_min;
  double session_minutes;
  size_t min_batch_workers;
  size_t max_tasks_per_iteration;
  size_t max_solver_replays;  // Traced run: replayed iteration shapes.
};

constexpr Workload kWorkloads[] = {
    // Fig. 5 deployment at serving scale: one worker per iteration,
    // many small solves plus a relevance row per arrival.
    {"stream", 1000, 100, 1000, 1.05, 0.8, 128, 2.0, 30.0, 1, 300, 150},
    // Due workers pooled into W^i = 4: few large solves.
    {"pooled", 600, 100, 1000, 1.05, 0.8, 112, 3.0, 30.0, 4, 800, 60},
    // Short sessions at a high arrival rate: registration-heavy.
    {"churn", 2000, 100, 1000, 1.05, 0.8, 560, 20.0, 4.0, 1, 300, 150},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.Next();
}

// ---------------------------------------------------------------------------
// Inputs, generated from the seed alone.

/// Distinct crowds per seed. Every run deploys each of them at least
/// once over the one catalog, so the outcome metrics average over
/// kCrowds x Workload::workers sessions while a deployment stays short.
constexpr size_t kCrowds = 4;

struct Crowd {
  uint64_t seed;  // Behavior streams and the service's own seed.
  std::vector<Worker> profiles;
  std::vector<double> arrivals;
};

struct Inputs {
  Catalog catalog;
  std::vector<Crowd> crowds;
  std::vector<KeywordSet> task_keywords;  // For the Eq. 3 reference.
  double generation_seconds = 0.0;
};

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Inputs in;
  CatalogOptions catalog_options;
  catalog_options.num_groups = w.groups;
  catalog_options.tasks_per_group = w.tasks_per_group;
  catalog_options.vocabulary_size = w.vocabulary;
  catalog_options.zipf_exponent = w.zipf;
  catalog_options.seed = SubSeed(seed, 1);
  auto catalog = GenerateCatalog(catalog_options);
  HTA_CHECK(catalog.ok()) << catalog.status();
  in.catalog = std::move(*catalog);

  for (size_t k = 0; k < kCrowds; ++k) {
    Crowd crowd;
    crowd.seed = SubSeed(seed, 100 + k);
    WorkerGenOptions worker_options;
    worker_options.count = w.workers;
    worker_options.group_affinity = w.group_affinity;
    worker_options.seed = SubSeed(crowd.seed, 2);
    auto profiles = GenerateWorkers(worker_options, in.catalog);
    HTA_CHECK(profiles.ok()) << profiles.status();
    crowd.profiles = std::move(*profiles);
    crowd.arrivals = PoissonArrivalMinutes(w.workers, w.arrivals_per_min,
                                           SubSeed(crowd.seed, 3));
    in.crowds.push_back(std::move(crowd));
  }
  in.generation_seconds = SecondsSince(start);

  in.task_keywords.reserve(in.catalog.size());
  for (size_t i = 0; i < in.catalog.size(); ++i) {
    // The event log names tasks by id; the generator numbers them densely.
    HTA_CHECK_EQ(in.catalog.tasks[i].id(), static_cast<uint64_t>(i));
    in.task_keywords.push_back(in.catalog.tasks[i].keywords().ToIds());
  }
  return in;
}

/// Fresh behavioral workers: they are stateful, so every deployment
/// rebuilds them from the same seeds to face the same crowd.
std::vector<BehavioralWorker> MakeCrowd(const Inputs& in, const Crowd& c) {
  std::vector<BehavioralWorker> crowd;
  crowd.reserve(c.profiles.size());
  for (size_t s = 0; s < c.profiles.size(); ++s) {
    Rng param_rng(SubSeed(c.seed, 1000 + s));
    const BehaviorParams params = SampleBehaviorParams(&param_rng);
    crowd.emplace_back(&in.catalog.tasks, DistanceKind::kJaccard,
                       c.profiles[s], params, param_rng.Fork(17));
  }
  return crowd;
}

AssignmentServiceOptions ServiceOptions(const Workload& w, uint64_t seed,
                                        EventLog* log) {
  AssignmentServiceOptions options;
  options.min_batch_workers = w.min_batch_workers;
  options.max_tasks_per_iteration = w.max_tasks_per_iteration;
  options.event_log = log;
  options.seed = SubSeed(seed, 4);
  return options;
}

// ---------------------------------------------------------------------------
// The timing proxy: the serving surface RunDeploymentLoop drives. It
// times every call and counts failed completions instead of letting the
// loop's HTA_CHECK end the run.

enum class CallKind : uint8_t { kRegister, kAck, kRefresh, kFailed };

struct CallRecord {
  CallKind kind;
  uint64_t worker;
  size_t log_end;        // Event-log size after the call.
  size_t iteration_end;  // Service iteration count after the call.
  MotivationWeights weights;  // The caller's live estimate after the call.
};

class TimedService {
 public:
  TimedService(AssignmentService* service, const EventLog* log)
      : service_(service), log_(log) {}

  void AdvanceClock(double minute) { service_->AdvanceClock(minute); }
  double clock_minutes() const { return service_->clock_minutes(); }

  uint64_t RegisterWorker(const KeywordVector& interests) {
    const Clock::time_point start = Clock::now();
    const uint64_t id = service_->RegisterWorker(interests);
    const double seconds = SecondsSince(start);
    service_seconds_ += seconds;
    register_ms_.push_back(seconds * 1e3);
    workers_.emplace(id, Worker(id, interests));
    AfterCall(CallKind::kRegister, id);
    return id;
  }

  std::vector<size_t> Displayed(uint64_t worker_id) {
    const Clock::time_point start = Clock::now();
    std::vector<size_t> displayed = service_->Displayed(worker_id);
    service_seconds_ += SecondsSince(start);
    return displayed;
  }

  Status NotifyCompleted(uint64_t worker_id, size_t catalog_index) {
    const size_t iterations_before = service_->iteration_count();
    const Clock::time_point start = Clock::now();
    const Status status = service_->NotifyCompleted(worker_id, catalog_index);
    const double seconds = SecondsSince(start);
    service_seconds_ += seconds;
    CallKind kind = CallKind::kAck;
    if (!status.ok()) {
      kind = CallKind::kFailed;
      if (first_failure_.empty()) first_failure_ = status.ToString();
    } else if (service_->iteration_count() != iterations_before) {
      kind = CallKind::kRefresh;
      refresh_ms_.push_back(seconds * 1e3);
    } else {
      ack_us_.push_back(seconds * 1e6);
    }
    AfterCall(kind, worker_id);
    return Status::OK();  // Counted; the crowd carries on.
  }

  void Deregister(uint64_t worker_id) {
    const Clock::time_point start = Clock::now();
    service_->Deregister(worker_id);
    service_seconds_ += SecondsSince(start);
  }

  const std::vector<double>& register_ms() const { return register_ms_; }
  const std::vector<double>& ack_us() const { return ack_us_; }
  const std::vector<double>& refresh_ms() const { return refresh_ms_; }
  double service_seconds() const { return service_seconds_; }
  const std::vector<CallRecord>& calls() const { return calls_; }
  size_t Count(CallKind kind) const {
    return static_cast<size_t>(std::count_if(
        calls_.begin(), calls_.end(),
        [kind](const CallRecord& c) { return c.kind == kind; }));
  }
  const std::string& first_failure() const { return first_failure_; }
  const Worker& worker(uint64_t worker_id) const {
    return workers_.at(worker_id);
  }
  /// The displayed worker's live estimate right after the call that
  /// logged display event `log_index` (the weights its solve used).
  MotivationWeights display_weights(size_t log_index) const {
    return display_weights_[log_index];
  }
  size_t peak_session_rel_bytes() const { return peak_session_rel_bytes_; }

 private:
  void AfterCall(CallKind kind, uint64_t worker_id) {
    const std::vector<LoggedEvent>& events = log_->events();
    display_weights_.resize(events.size());
    for (size_t i = log_seen_; i < events.size(); ++i) {
      if (events[i].kind == LoggedEvent::Kind::kDisplayed) {
        display_weights_[i] = service_->CurrentWeights(events[i].worker_id);
      }
    }
    log_seen_ = events.size();
    calls_.push_back(CallRecord{kind, worker_id, events.size(),
                                service_->iteration_count(),
                                service_->CurrentWeights(worker_id)});
    if (const SessionRelevanceCache* rows = service_->session_relevance()) {
      peak_session_rel_bytes_ =
          std::max(peak_session_rel_bytes_, rows->bytes_used());
    }
  }

  AssignmentService* service_;
  const EventLog* log_;
  size_t log_seen_ = 0;
  double service_seconds_ = 0.0;
  std::vector<double> register_ms_;
  std::vector<double> ack_us_;
  std::vector<double> refresh_ms_;
  std::vector<CallRecord> calls_;
  std::unordered_map<uint64_t, Worker> workers_;  // Interests only.
  std::vector<MotivationWeights> display_weights_;
  size_t peak_session_rel_bytes_ = 0;
  std::string first_failure_;
};

// ---------------------------------------------------------------------------
// One deployment ("round") over the seed's inputs.

struct Round {
  std::unique_ptr<EventLog> log;
  std::unique_ptr<AssignmentService> service;
  std::unique_ptr<TimedService> proxy;
  std::vector<SessionResult> sessions;
  double setup_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Deploys crowd `k` against a fresh service over the catalog.
Round RunRound(const Workload& w, const Inputs& in, size_t k) {
  const Crowd& c = in.crowds[k];
  Round round;
  round.log = std::make_unique<EventLog>();
  const Clock::time_point setup_start = Clock::now();
  round.service = std::make_unique<AssignmentService>(
      &in.catalog.tasks, ServiceOptions(w, c.seed, round.log.get()));
  round.setup_seconds = SecondsSince(setup_start);
  round.proxy =
      std::make_unique<TimedService>(round.service.get(), round.log.get());
  std::vector<BehavioralWorker> crowd = MakeCrowd(in, c);
  std::vector<size_t> slots(crowd.size());
  std::iota(slots.begin(), slots.end(), size_t{0});
  SessionConfig session;
  session.max_minutes = w.session_minutes;
  round.sessions.resize(crowd.size());
  const Clock::time_point start = Clock::now();
  sim_internal::RunDeploymentLoop(round.proxy.get(), in.catalog, &crowd, slots,
                                  c.arrivals, session, &round.sessions);
  round.wall_seconds = SecondsSince(start);
  return round;
}

// ---------------------------------------------------------------------------
// Output checks and the deterministic outcome of one round.

struct RoundOutcome {
  size_t completions = 0;
  double tasks_per_session = 0.0;
  double bundle_motivation_sum = 0.0;
  size_t bundles = 0;
  size_t solver_iterations = 0;
  double workers_per_iteration = 0.0;
  double tasks_per_iteration = 0.0;
  std::string digest;
};

void HashInto(uint64_t* h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (v >> (8 * b)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<size_t> TaskIndices(const LoggedEvent& event) {
  return std::vector<size_t>(event.task_ids.begin(), event.task_ids.end());
}

/// Checks one deployment's outputs; returns "" or the first failure.
///  - no display exceeds Xmax + extras, and none comes back short (the
///    catalog outlasts the deployment);
///  - no task is displayed to two workers at once;
///  - each task is completed at most once, only by a worker it was
///    displayed to;
///  - the TaskPool's counts equal this bookkeeping;
///  - the Eq. 3 reference sum of each iteration's bundles matches
///    IterationRecord::motivation within 1e-9 relative;
///  - replaying the event log through a fresh MotivationEstimator
///    reproduces every live CurrentWeights exactly;
///  - every session ended and every call succeeded.
std::string CheckRound(const Workload& w, const Inputs& in, const Round& round,
                       RoundOutcome* out) {
  const AssignmentService& service = *round.service;
  const TimedService& proxy = *round.proxy;
  const std::vector<LoggedEvent>& events = round.log->events();
  const AssignmentServiceOptions& options = service.options();
  const size_t display_size = options.xmax + options.extra_random_tasks;
  char buf[256];

  if (proxy.Count(CallKind::kFailed) != 0) {
    return "failed NotifyCompleted calls, first: " + proxy.first_failure();
  }

  // Task bookkeeping. A task is held from its first display on; only a
  // leaving worker's live display goes back to the pool, and only with
  // recycle_on_leave.
  std::vector<uint64_t> owner(in.catalog.size(), 0);  // Ids start at 1.
  std::vector<uint8_t> completed(in.catalog.size(), 0);
  std::unordered_map<uint64_t, std::vector<uint64_t>> live_display;
  size_t held_tasks = 0;
  size_t completions = 0;
  for (const LoggedEvent& e : events) {
    if (e.kind == LoggedEvent::Kind::kDisplayed) {
      if (e.task_ids.size() != display_size) {
        std::snprintf(buf, sizeof(buf),
                      "display of %zu tasks to worker %" PRIu64
                      " (want %zu: Xmax + extras, catalog not exhausted)",
                      e.task_ids.size(), e.worker_id, display_size);
        return buf;
      }
      for (uint64_t t : e.task_ids) {
        if (owner[t] != 0 && owner[t] != e.worker_id) {
          std::snprintf(buf, sizeof(buf),
                        "task %" PRIu64 " displayed to workers %" PRIu64
                        " and %" PRIu64,
                        t, owner[t], e.worker_id);
          return buf;
        }
        if (owner[t] == 0) ++held_tasks;
        owner[t] = e.worker_id;
      }
      live_display[e.worker_id] = e.task_ids;
    } else if (e.kind == LoggedEvent::Kind::kCompleted) {
      const uint64_t t = e.task_ids.at(0);
      if (completed[t]) return "task " + std::to_string(t) + " completed twice";
      if (owner[t] != e.worker_id) {
        return "task " + std::to_string(t) +
               " completed by a worker it was not displayed to";
      }
      completed[t] = 1;
      ++completions;
    } else if (e.kind == LoggedEvent::Kind::kDeregistered &&
               options.recycle_on_leave) {
      for (uint64_t t : live_display[e.worker_id]) {
        if (!completed[t]) {
          owner[t] = 0;
          --held_tasks;
        }
      }
      live_display.erase(e.worker_id);
    }
  }
  const TaskPool& pool = service.pool();
  if (pool.completed_count() != completions ||
      pool.available_count() != in.catalog.size() - held_tasks) {
    std::snprintf(buf, sizeof(buf),
                  "TaskPool counts (available %zu, completed %zu) differ from "
                  "bookkeeping (%zu, %zu)",
                  pool.available_count(), pool.completed_count(),
                  in.catalog.size() - held_tasks, completions);
    return buf;
  }

  // Eq. 3 per solver-backed iteration, and the iteration shapes.
  size_t log_begin = 0;
  size_t iteration_begin = 0;
  double workers_sum = 0.0, tasks_sum = 0.0;
  for (const CallRecord& call : proxy.calls()) {
    if (call.iteration_end - iteration_begin > 1) {
      return "one call ran more than one iteration";
    }
    if (call.kind == CallKind::kAck && call.iteration_end != iteration_begin) {
      return "acknowledgement ran an iteration";
    }
    if (call.kind == CallKind::kRefresh) {
      const IterationRecord& record =
          service.iterations()[call.iteration_end - 1];
      if (record.task_count == 0) return "refresh without a solve";
      double reference = 0.0;
      size_t displays = 0;
      for (size_t i = log_begin; i < call.log_end; ++i) {
        const LoggedEvent& e = events[i];
        if (e.kind != LoggedEvent::Kind::kDisplayed) continue;
        std::vector<const KeywordSet*> bundle;
        for (size_t k = 0; k < options.xmax; ++k) {
          bundle.push_back(&in.task_keywords[e.task_ids[k]]);
        }
        const MotivationWeights weights = proxy.display_weights(i);
        const double motivation = servebench::Motivation(
            bundle, proxy.worker(e.worker_id).interests().ToIds(),
            weights.alpha, weights.beta);
        reference += motivation;
        out->bundle_motivation_sum += motivation;
        ++out->bundles;
        ++displays;
      }
      if (displays != record.worker_count) {
        return "iteration displays differ from its worker count";
      }
      if (std::fabs(reference - record.motivation) >
          1e-9 * std::max(1.0, std::fabs(record.motivation))) {
        std::snprintf(buf, sizeof(buf),
                      "iteration %zu: Eq. 3 reference %.17g, service %.17g",
                      record.iteration, reference, record.motivation);
        return buf;
      }
      ++out->solver_iterations;
      workers_sum += static_cast<double>(record.worker_count);
      tasks_sum += static_cast<double>(record.task_count);
    }
    log_begin = call.log_end;
    iteration_begin = call.iteration_end;
  }
  if (iteration_begin != service.iteration_count()) {
    return "iterations ran outside register/complete calls";
  }

  // Estimator replay: every live estimate after a completion, exactly.
  MotivationEstimator estimator(&in.catalog.tasks, options.metric,
                                options.prior);
  std::vector<const CallRecord*> completion_calls;
  for (const CallRecord& call : proxy.calls()) {
    if (call.kind == CallKind::kAck || call.kind == CallKind::kRefresh) {
      completion_calls.push_back(&call);
    }
  }
  size_t next_completion = 0;
  for (const LoggedEvent& e : events) {
    if (e.kind == LoggedEvent::Kind::kDisplayed) {
      estimator.BeginBundle(e.worker_id, TaskIndices(e));
    } else if (e.kind == LoggedEvent::Kind::kCompleted) {
      estimator.ObserveCompletion(e.worker_id, e.task_ids[0],
                                  proxy.worker(e.worker_id));
      const MotivationWeights replayed = estimator.Estimate(e.worker_id);
      const CallRecord& live = *completion_calls.at(next_completion++);
      if (live.worker != e.worker_id ||
          Bits(replayed.alpha) != Bits(live.weights.alpha) ||
          Bits(replayed.beta) != Bits(live.weights.beta)) {
        return "estimator replay differs from live CurrentWeights for worker " +
               std::to_string(e.worker_id);
      }
    }
  }

  size_t session_tasks = 0;
  for (const SessionResult& s : round.sessions) {
    if (s.worker_id == 0) return "a session never ended";
    session_tasks += s.tasks_completed();
  }
  if (session_tasks != completions) return "session results miss completions";

  out->completions = completions;
  out->tasks_per_session = static_cast<double>(completions) /
                           static_cast<double>(round.sessions.size());
  out->workers_per_iteration =
      out->solver_iterations ? workers_sum / out->solver_iterations : 0.0;
  out->tasks_per_iteration =
      out->solver_iterations ? tasks_sum / out->solver_iterations : 0.0;

  uint64_t h = 0xcbf29ce484222325ULL;
  for (const LoggedEvent& e : events) {
    HashInto(&h, Bits(e.minute));
    HashInto(&h, e.worker_id);
    HashInto(&h, static_cast<uint64_t>(e.kind));
    for (uint64_t t : e.task_ids) HashInto(&h, t);
  }
  for (const IterationRecord& r : service.iterations()) {
    HashInto(&h, Bits(r.motivation));
    HashInto(&h, r.task_count);
  }
  std::snprintf(buf, sizeof(buf),
                "%s completions=%zu iterations=%zu events=%zu log=%016" PRIx64
                " motivation=%a",
                w.name, completions, service.iteration_count(), events.size(),
                h, out->bundle_motivation_sum);
  out->digest = buf;
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer replay (traced run): re-issues each layer's public calls on
// the inputs recorded in the same run — the event log, the registered
// interests and the iteration shapes (sample size, W^i with its
// weights, the same catalog).

struct LayerSamples {
  std::vector<double> catalog_build_ms, relevance_row_ms, add_ms, gather_us,
      observe_us, begin_us, select_ns, mark_ns, create_us, aux_ms, edges_ms,
      greedy_ms, lsap_ms, swap_extract_ms, solve_ms, edges, certified_ratio;
  // The solver's own timer of its LSAP phase (profit tables + greedy
  // LSAP) in the replayed SolveWithStrategy: a cross-check of
  // aux_ms + lsap_ms, whose LSAP runs on a bench-side profit oracle.
  std::vector<double> solver_lsap_ms;
  double speedup = 0.0;
  double layer_ms_sum = 0.0;  // Replayed refresh-path layers, all shapes.
  size_t shapes = 0;
};

struct Shape {
  size_t log_index;   // First display event of the iteration.
  size_t iteration;   // Index into service.iterations().
  std::vector<std::pair<uint64_t, MotivationWeights>> workers;
};

std::vector<Shape> IterationShapes(const Round& round, size_t max_shapes) {
  std::vector<Shape> all;
  size_t log_begin = 0;
  const std::vector<LoggedEvent>& events = round.log->events();
  for (const CallRecord& call : round.proxy->calls()) {
    if (call.kind == CallKind::kRefresh) {
      Shape shape{call.log_end, call.iteration_end - 1, {}};
      for (size_t i = log_begin; i < call.log_end; ++i) {
        if (events[i].kind != LoggedEvent::Kind::kDisplayed) continue;
        shape.log_index = std::min(shape.log_index, i);
        shape.workers.emplace_back(events[i].worker_id,
                                   round.proxy->display_weights(i));
      }
      all.push_back(std::move(shape));
    }
    log_begin = call.log_end;
  }
  const size_t stride = std::max<size_t>(1, (all.size() + max_shapes - 1) /
                                                max_shapes);
  std::vector<Shape> picked;
  for (size_t i = 0; i < all.size(); i += stride) {
    picked.push_back(std::move(all[i]));
  }
  return picked;
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start) * 1e3;
}

std::string ReplaySolve(const Inputs& in, const Round& round,
                        const Shape& shape, const CatalogCache& cache,
                        const SessionRelevanceCache& rows,
                        const TaskPool& pool, Rng* rng, LayerSamples* out) {
  const AssignmentServiceOptions& options = round.service->options();
  const IterationRecord& record =
      round.service->iterations()[shape.iteration];
  const size_t threads = options.solver_threads;
  const size_t n = record.task_count;

  // Availability sampling: the service resolves each sampled rank with
  // one SelectAvailable.
  std::vector<uint64_t> ranks(n);
  for (uint64_t& r : ranks) r = rng->NextBounded(pool.available_count());
  const double select_ms = TimeMs([&] {
    for (uint64_t r : ranks) pool.SelectAvailable(r);
  });
  out->select_ns.push_back(select_ms * 1e6 / static_cast<double>(n));

  std::vector<size_t> sample = rng->SampleWithoutReplacement(
      in.catalog.size(), n);
  std::sort(sample.begin(), sample.end());
  std::vector<Worker> workers;
  std::vector<uint64_t> ids;
  for (const auto& [id, weights] : shape.workers) {
    workers.emplace_back(id, round.proxy->worker(id).interests(), weights);
    ids.push_back(id);
  }

  std::vector<double> rel;
  bool gathered = false;
  const double gather_ms =
      TimeMs([&] { gathered = rows.GatherTable(sample, ids, &rel); });
  if (!gathered) return "relevance rows missing for a replayed iteration";
  out->gather_us.push_back(gather_ms * 1e3);

  std::optional<CatalogSubsetView> view;
  std::optional<Result<HtaProblem>> problem;
  const double create_ms = TimeMs([&] {
    view.emplace(&cache, sample);
    problem.emplace(HtaProblem::CreateFromSubset(
        &*view, &workers, options.xmax, /*allow_non_metric=*/true,
        std::move(rel)));
  });
  if (!problem->ok()) return problem->status().ToString();
  const HtaProblem& p = **problem;
  out->create_us.push_back(create_ms * 1e3);

  const QapView qap(&p);
  std::vector<WeightedEdge> edges;
  const double edges_ms =
      TimeMs([&] { edges = BuildDiversityEdges(p.oracle(), threads); });
  out->edges.push_back(static_cast<double>(edges.size()));
  GraphMatching mb;
  const double greedy_ms = TimeMs([&] {
    mb = GreedyMaxWeightMatching(qap.n(), std::move(edges), threads);
  });

  // The auxiliary LSAP profit f_{k,l} = bM(t_k) degA_l + c_{k,l}
  // (Algorithm 2, Line 10). The solver tabulates it per worker clique
  // in a class with no public entry point, so this layer is timed as
  // the public calls that class makes, at the service's thread cap:
  // QapView::DegA per worker and HtaProblem::FillRelevanceTable.
  const size_t wq = p.worker_count();
  std::vector<double> deg_a(wq), table;
  const double aux_ms = TimeMs([&] {
    for (size_t q = 0; q < wq; ++q) deg_a[q] = qap.DegA(q * p.xmax());
    p.FillRelevanceTable(&table, threads);
  });
  // bM and the c-table products, with the solver's arithmetic; untimed,
  // they only feed the replayed LSAP.
  std::vector<double> bm(qap.n(), 0.0), c_table(table.size());
  for (const auto& [u, v] : mb.edges) {
    bm[u] = bm[v] =
        p.oracle()(static_cast<TaskIndex>(u), static_cast<TaskIndex>(v));
  }
  const double norm = static_cast<double>(p.xmax()) - 1.0;
  for (size_t k = 0; k < p.task_count(); ++k) {
    for (size_t q = 0; q < wq; ++q) {
      c_table[k * wq + q] =
          p.workers()[q].weights().beta * table[k * wq + q] * norm;
    }
  }
  const auto profit = [&](size_t k, size_t l) {
    const size_t q = l / p.xmax();
    if (q >= wq) return 0.0;
    const double c = k < p.task_count() ? c_table[k * wq + q] : 0.0;
    return bm[k] * deg_a[q] + c;
  };
  const std::vector<size_t> worker_cols = qap.WorkerColumns();
  LsapSolution lsap;
  const double lsap_ms = TimeMs(
      [&] { lsap = SolveLsapGreedy(qap.n(), profit, &worker_cols); });
  const double extract_ms = TimeMs([&] {
    const Assignment assignment = ExtractAssignment(qap, lsap.row_to_col);
    qap.Objective(lsap.row_to_col, threads);
    TotalMotivation(p, assignment);
  });

  Rng solve_rng(options.seed + shape.iteration);
  std::optional<Result<HtaSolveResult>> solved;
  const double solve_ms = TimeMs([&] {
    solved.emplace(SolveWithStrategy(p, options.strategy,
                                     options.seed + shape.iteration,
                                     &solve_rng, options.swap, threads));
  });
  if (!solved->ok()) return solved->status().ToString();
  const double ratio = (**solved).stats.certified_ratio;
  out->solver_lsap_ms.push_back((**solved).stats.lsap_seconds * 1e3);
  if (!(ratio >= 1.0 / 8.0)) {
    return "replayed GRE solve certifies ratio " + std::to_string(ratio) +
           " < 1/8";
  }

  if (out->shapes == 0) {
    // Effective parallelism of the matching phase on this instance.
    std::vector<double> serial, pooled;
    for (int rep = 0; rep < 5; ++rep) {
      for (const size_t cap : {size_t{1}, size_t{0}}) {
        const double ms = TimeMs([&] {
          GreedyMaxWeightMatching(qap.n(), BuildDiversityEdges(p.oracle(), cap),
                                  cap);
        });
        (cap == 1 ? serial : pooled).push_back(ms);
      }
    }
    out->speedup = *Percentile(serial, 50) / *Percentile(pooled, 50);
  }

  out->edges_ms.push_back(edges_ms);
  out->greedy_ms.push_back(greedy_ms);
  out->aux_ms.push_back(aux_ms);
  out->lsap_ms.push_back(lsap_ms);
  out->swap_extract_ms.push_back(extract_ms);
  out->solve_ms.push_back(solve_ms);
  out->certified_ratio.push_back(ratio);
  out->layer_ms_sum += gather_ms + create_ms + edges_ms + greedy_ms + aux_ms +
                       lsap_ms + extract_ms + select_ms;
  ++out->shapes;
  return "";
}

std::string ReplayLayers(const Workload& w, const Inputs& in,
                         const Round& round, uint64_t seed,
                         LayerSamples* out) {
  const AssignmentServiceOptions& options = round.service->options();
  const TimedService& proxy = *round.proxy;
  CatalogCache::Options cache_options;
  cache_options.max_distance_cache_bytes = options.warm_distance_cache_bytes;
  std::unique_ptr<CatalogCache> cache;
  for (int rep = 0; rep < 5; ++rep) {
    cache.reset();
    out->catalog_build_ms.push_back(TimeMs([&] {
      cache = std::make_unique<CatalogCache>(&in.catalog.tasks, options.metric,
                                             cache_options);
    }));
  }

  std::vector<double> row(in.catalog.size());
  for (const CallRecord& call : proxy.calls()) {
    if (call.kind != CallKind::kRegister) continue;
    if (out->relevance_row_ms.size() == 64) break;
    out->relevance_row_ms.push_back(TimeMs([&] {
      cache->FillRelevanceRow(proxy.worker(call.worker).interests(),
                              row.data(), options.solver_threads);
    }));
  }

  SessionRelevanceCache rows(cache.get(), options.session_relevance_bytes);
  MotivationEstimator estimator(&in.catalog.tasks, options.metric,
                                options.prior);
  estimator.AttachSharedCache(cache.get());
  estimator.AttachSessionRelevance(&rows);
  TaskPool pool(&in.catalog.tasks);
  const std::vector<Shape> shapes =
      IterationShapes(round, w.max_solver_replays);
  size_t next_shape = 0;
  Rng rng(SubSeed(seed, 5));
  std::unordered_map<uint64_t, std::vector<size_t>> live_display;

  const std::vector<LoggedEvent>& events = round.log->events();
  for (size_t i = 0; i < events.size(); ++i) {
    const LoggedEvent& e = events[i];
    while (next_shape < shapes.size() && shapes[next_shape].log_index == i) {
      const std::string error = ReplaySolve(in, round, shapes[next_shape],
                                            *cache, rows, pool, &rng, out);
      if (!error.empty()) return error;
      ++next_shape;
    }
    switch (e.kind) {
      case LoggedEvent::Kind::kRegistered:
        out->add_ms.push_back(TimeMs([&] {
          rows.AddSession(e.worker_id, proxy.worker(e.worker_id).interests(),
                          options.solver_threads);
        }));
        break;
      case LoggedEvent::Kind::kDeregistered:
        rows.RemoveSession(e.worker_id);
        if (options.recycle_on_leave) {
          for (size_t t : live_display[e.worker_id]) {
            if (pool.state(t) == TaskState::kAssigned &&
                !pool.Release(t).ok()) {
              return "replayed release of a task that was not assigned";
            }
          }
          live_display.erase(e.worker_id);
        }
        break;
      case LoggedEvent::Kind::kDisplayed: {
        const std::vector<size_t> tasks = TaskIndices(e);
        live_display[e.worker_id] = tasks;
        bool ok = true;
        const double mark_ms = TimeMs([&] {
          for (size_t t : tasks) ok = pool.MarkAssigned(t).ok() && ok;
        });
        if (!ok) return "replayed display of a task that was not available";
        out->mark_ns.push_back(mark_ms * 1e6 /
                               static_cast<double>(tasks.size()));
        out->begin_us.push_back(
            TimeMs([&] { estimator.BeginBundle(e.worker_id, tasks); }) * 1e3);
        break;
      }
      case LoggedEvent::Kind::kCompleted: {
        if (!pool.MarkCompleted(e.task_ids[0]).ok()) {
          return "replayed completion of a task that was not assigned";
        }
        out->observe_us.push_back(TimeMs([&] {
          estimator.ObserveCompletion(e.worker_id, e.task_ids[0],
                                      proxy.worker(e.worker_id));
        }) * 1e3);
        break;
      }
    }
  }
  if (next_shape != shapes.size()) return "an iteration shape was not replayed";
  if (pool.completed_count() != round.service->pool().completed_count() ||
      pool.available_count() != round.service->pool().available_count()) {
    return "replayed TaskPool differs from the live pool";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Reporting.

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  /// Adds the median of `samples`; empty samples are an error.
  void AddMedian(const char* name, const std::vector<double>& samples,
                 const char* unit, std::string* error) {
    if (samples.empty()) {
      if (error->empty()) *error = std::string("no samples for ") + name;
      Add(name, 0.0, unit);
      return;
    }
    Add(name, *Percentile(samples, 50), unit);
  }
  void Print(const std::string& error, size_t attempted, size_t failed,
             const std::string& digest) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}, \"digest\": \"%s\", \"error\": \"%s\"}\n",
                error.empty() ? "true" : "false", attempted, failed,
                body_.c_str(), digest.c_str(), JsonSafe(error).c_str());
  }

 private:
  static std::string JsonSafe(std::string s) {
    for (char& c : s) {
      if (c == '"' || c == '\\' || c < 0x20) c = '\'';
    }
    return s;
  }
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t CounterValue(const std::vector<metrics::MetricValue>& snapshot,
                      const char* name) {
  for (const metrics::MetricValue& v : snapshot) {
    if (v.name == name) return v.count;
  }
  return 0;
}

/// Timed run: one unmeasured warm-up deployment (a long-running
/// service pays its first-touch page faults and pool start-up once),
/// then measured deployments cycling through the crowds until every
/// crowd has run and `seconds` of deployment wall time are measured.
/// Every deployment is checked, and a crowd's repeats must reproduce
/// its digest.
int RunTimed(const Workload& w, const Inputs& in, double seconds) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < 4; ++rep) {
    const Clock::time_point start = Clock::now();
    AssignmentService service(&in.catalog.tasks,
                              ServiceOptions(w, in.crowds[0].seed, nullptr));
    setup_s.push_back(SecondsSince(start));
  }
  std::string error;
  std::vector<RoundOutcome> outcomes(kCrowds);
  // Per measured deployment: the completion rate and each latency
  // percentile. The run reports their medians, so a slow stretch of the
  // machine that covers a minority of the deployments moves no metric.
  std::vector<double> rate, reg50, reg90, ack50, ack90, ref50, ref90;
  size_t register_samples = 0, ack_samples = 0, refresh_samples = 0;
  double wall = 0.0, service_seconds = 0.0;
  size_t attempted = 0, failed = 0, rounds = 0;
  size_t per_kind[4] = {0, 0, 0, 0};
  for (size_t i = 0; i <= kCrowds || wall < seconds; ++i) {
    const size_t k = i == 0 ? 0 : (i - 1) % kCrowds;
    const Round round = RunRound(w, in, k);
    setup_s.push_back(round.setup_seconds);
    RoundOutcome outcome;
    const std::string check = CheckRound(w, in, round, &outcome);
    if (error.empty()) error = check;
    if (outcomes[k].digest.empty()) {
      outcomes[k] = outcome;
    } else if (error.empty() && outcome.digest != outcomes[k].digest) {
      error = "deployments of the same crowd differ";
    }
    if (i == 0) continue;  // Warm-up.
    const TimedService& proxy = *round.proxy;
    wall += round.wall_seconds;
    service_seconds += proxy.service_seconds();
    if (proxy.register_ms().empty() || proxy.ack_us().empty() ||
        proxy.refresh_ms().empty()) {
      if (error.empty()) error = "a deployment made no call of some kind";
      continue;
    }
    rate.push_back(static_cast<double>(outcome.completions) /
                   round.wall_seconds);
    reg50.push_back(*Percentile(proxy.register_ms(), 50));
    reg90.push_back(*Percentile(proxy.register_ms(), 90));
    ack50.push_back(*Percentile(proxy.ack_us(), 50));
    ack90.push_back(*Percentile(proxy.ack_us(), 90));
    ref50.push_back(*Percentile(proxy.refresh_ms(), 50));
    ref90.push_back(*Percentile(proxy.refresh_ms(), 90));
    register_samples += proxy.register_ms().size();
    ack_samples += proxy.ack_us().size();
    refresh_samples += proxy.refresh_ms().size();
    for (const CallRecord& call : proxy.calls()) {
      ++per_kind[static_cast<int>(call.kind)];
    }
    attempted += proxy.calls().size();
    failed += proxy.Count(CallKind::kFailed);
    ++rounds;
  }
  double bundle_sum = 0.0, session_tasks = 0.0;
  size_t bundles = 0;
  for (const RoundOutcome& o : outcomes) {
    bundle_sum += o.bundle_motivation_sum;
    bundles += o.bundles;
    session_tasks += o.tasks_per_session;
  }
  std::printf("# rounds=%zu wall_s=%.3f service_share=%.3f calls: register=%zu "
              "ack=%zu refresh=%zu failed=%zu samples: register=%zu ack=%zu "
              "refresh=%zu\n",
              rounds, wall, service_seconds / wall, per_kind[0], per_kind[1],
              per_kind[2], per_kind[3], register_samples, ack_samples,
              refresh_samples);

  Report report;
  report.AddMedian("completions_per_s", rate, "1/s", &error);
  report.AddMedian("register_p50_ms", reg50, "ms", &error);
  report.AddMedian("register_p90_ms", reg90, "ms", &error);
  report.AddMedian("ack_p50_us", ack50, "us", &error);
  report.AddMedian("ack_p90_us", ack90, "us", &error);
  report.AddMedian("refresh_p50_ms", ref50, "ms", &error);
  report.AddMedian("refresh_p90_ms", ref90, "ms", &error);
  report.Add("bundle_motivation", bundles ? bundle_sum / bundles : 0.0,
             "eq3");
  report.Add("tasks_per_session", session_tasks / kCrowds, "tasks");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.AddMedian("setup_s", setup_s, "s", &error);
  report.Print(error, attempted, failed, outcomes[0].digest);
  return 0;
}

int RunTraced(const Workload& w, const Inputs& in, uint64_t seed) {
  metrics::OverrideEnabled(true);
  metrics::ResetForTesting();
  const Round round = RunRound(w, in, 0);
  const std::vector<metrics::MetricValue> snapshot = metrics::Snapshot();
  metrics::OverrideEnabled(false);

  RoundOutcome outcome;
  std::string error = CheckRound(w, in, round, &outcome);
  const TimedService& proxy = *round.proxy;
  const size_t completions =
      proxy.Count(CallKind::kAck) + proxy.Count(CallKind::kRefresh);
  // Cross-check against the program's own counters.
  if (error.empty() &&
      (CounterValue(snapshot, "engine.iterations") !=
           round.service->iteration_count() ||
       CounterValue(snapshot, "engine.registrations") !=
           proxy.Count(CallKind::kRegister) ||
       CounterValue(snapshot, "engine.completions") != completions ||
       CounterValue(snapshot, "solver.solves") != outcome.solver_iterations)) {
    error = "engine/solver counters disagree with the benchmark's spans";
  }
  LayerSamples layers;
  if (error.empty()) error = ReplayLayers(w, in, round, seed, &layers);

  double refresh_sum = 0.0;
  for (double ms : proxy.refresh_ms()) refresh_sum += ms;
  const double refresh_mean = refresh_sum / proxy.refresh_ms().size();
  std::printf("# traced: shapes=%zu refresh_mean_ms=%.4f layer_ms_per_refresh="
              "%.4f coverage=%.3f\n",
              layers.shapes, refresh_mean,
              layers.shapes ? layers.layer_ms_sum / layers.shapes : 0.0,
              layers.shapes ? layers.layer_ms_sum / layers.shapes /
                                  refresh_mean
                            : 0.0);
  if (layers.shapes != 0) {
    std::vector<double> aux_lsap;
    for (size_t i = 0; i < layers.shapes; ++i) {
      aux_lsap.push_back(layers.aux_ms[i] + layers.lsap_ms[i]);
    }
    std::printf("# traced: median ms per solve: aux_profit+lsap=%.4f, solver's "
                "own LSAP phase=%.4f\n",
                *Percentile(aux_lsap, 50),
                *Percentile(layers.solver_lsap_ms, 50));
  }

  Report r;
  r.Add("engine.register_calls", proxy.Count(CallKind::kRegister), "count");
  r.Add("engine.ack_calls", proxy.Count(CallKind::kAck), "count");
  r.Add("engine.refresh_calls", proxy.Count(CallKind::kRefresh), "count");
  r.Add("engine.failed_calls", proxy.Count(CallKind::kFailed), "count");
  r.Add("engine.workers_per_iteration", outcome.workers_per_iteration,
        "workers");
  r.Add("engine.tasks_per_iteration", outcome.tasks_per_iteration, "tasks");
  r.AddMedian("engine.session_rel.add_ms", layers.add_ms, "ms", &error);
  r.AddMedian("core.relevance_row_ms", layers.relevance_row_ms, "ms", &error);
  r.AddMedian("core.catalog_cache_build_ms", layers.catalog_build_ms,
              "ms", &error);
  r.AddMedian("engine.session_rel.gather_us", layers.gather_us, "us", &error);
  r.AddMedian("engine.estimator.observe_us", layers.observe_us, "us", &error);
  r.AddMedian("engine.estimator.begin_bundle_us", layers.begin_us,
              "us", &error);
  r.AddMedian("engine.task_pool.select_ns", layers.select_ns, "ns", &error);
  r.AddMedian("engine.task_pool.mark_ns", layers.mark_ns, "ns", &error);
  r.AddMedian("qap.create_from_subset_us", layers.create_us, "us", &error);
  r.AddMedian("qap.aux_profit_ms", layers.aux_ms, "ms", &error);
  r.AddMedian("matching.edges_ms", layers.edges_ms, "ms", &error);
  r.AddMedian("matching.greedy_ms", layers.greedy_ms, "ms", &error);
  r.AddMedian("matching.lsap_ms", layers.lsap_ms, "ms", &error);
  r.AddMedian("matching.edges", layers.edges, "count", &error);
  r.AddMedian("assign.solve_ms", layers.solve_ms, "ms", &error);
  r.AddMedian("assign.swap_extract_ms", layers.swap_extract_ms, "ms", &error);
  r.AddMedian("assign.certified_ratio", layers.certified_ratio,
              "ratio", &error);
  r.Add("local_search.runs", CounterValue(snapshot, "local_search.runs"),
        "count");
  r.Add("local_search.moves_applied",
        CounterValue(snapshot, "local_search.moves_applied"), "count");
  r.Add("catalog_cache.uncached_computes",
        CounterValue(snapshot, "catalog_cache.uncached_computes"), "count");
  r.Add("util.parallel.threads", ThreadPool::Global().thread_count(),
        "threads");
  r.Add("util.parallel.speedup", layers.speedup, "x");
  r.Add("sim.loadgen_s", round.wall_seconds - proxy.service_seconds(), "s");
  r.Add("sim.input_gen_s", in.generation_seconds, "s");
  r.Add("engine.session_rel.peak_mb",
        static_cast<double>(proxy.peak_session_rel_bytes()) / (1 << 20), "MB");
  r.Print(error, proxy.calls().size(), proxy.Count(CallKind::kFailed),
          outcome.digest);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench_driver --workload stream|pooled|churn "
               "--seed N (--seconds S --trace 0|1 | --digest-only)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--digest-only") {
      digest_only = true;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || (!digest_only && (trace < 0 || trace > 1 ||
                                        !(seconds > 0.0)))) {
    return Usage();
  }
  std::printf("# servebench workload=%s seed=%" PRIu64
              " pool_threads=%zu hardware_concurrency=%u\n",
              w->name, seed, ThreadPool::Global().thread_count(),
              std::thread::hardware_concurrency());
  const Inputs in = MakeInputs(*w, seed);
  if (digest_only) {
    const Round round = RunRound(*w, in, 0);
    RoundOutcome outcome;
    const std::string error = CheckRound(*w, in, round, &outcome);
    Report().Print(error, round.proxy->calls().size(),
                   round.proxy->Count(CallKind::kFailed), outcome.digest);
    return 0;
  }
  return trace == 1 ? RunTraced(*w, in, seed) : RunTimed(*w, in, seconds);
}
