#ifndef HTA_UTIL_METRICS_H_
#define HTA_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hta::metrics {

/// Process-wide metrics registry for the assignment engine.
///
/// Design constraints, in order:
///
///  1. *Near-zero cost when off.* Instrumentation is compiled in
///     unconditionally but gated on HTA_METRICS=1; a disabled Add() is
///     one relaxed load of a process-global flag and a predictable
///     branch. The engine's bit-identity contracts (cache budgets,
///     batched/scalar, any HTA_THREADS) must hold with metrics on or off —
///     instrumentation never feeds back into algorithm state.
///
///  2. *Deterministic totals.* Counters and gauges are integers, so
///     their totals are exact regardless of how increments interleave
///     across threads: HTA_THREADS never changes a reported count.
///     Histogram observation counts share that property; observed
///     *values* (latencies) vary run to run like any wall-clock
///     measurement, so bucket assignment and sums are reported but
///     excluded from DeterministicDigest().
///
///  3. *Scalable hot-path increments.* Each counter owns a small fixed
///     array of cache-line-padded stripes; a thread increments the
///     stripe picked by its (stable, registration-order) thread index
///     with a relaxed atomic add. Uncontended increments stay on a
///     core-local line, totals are the exact sum over stripes, and the
///     scheme is ASan/TSan-clean under concurrent writes from the
///     compute pool.
///
/// Metric handles are cheap id wrappers; define them as namespace-scope
/// or function-local statics next to the code they instrument.
/// Registration is keyed by name, so re-registering a name returns the
/// existing metric (tests that reconstruct services keep one series).

/// Whether the registry records anything. First call latches the
/// HTA_METRICS environment variable (=1 enables); OverrideEnabled
/// replaces the latched value (tests, the snapshot exporter tool).
bool Enabled();
void OverrideEnabled(bool enabled);

/// Stripes per counter. A power of two; threads beyond the stripe
/// count share stripes (totals stay exact, contention just rises).
inline constexpr size_t kCounterStripes = 16;

/// Stable per-thread stripe index in [0, kCounterStripes).
size_t ThreadStripe();

namespace internal {

struct alignas(64) Stripe {
  std::atomic<uint64_t> value{0};
};

enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

/// Registry-owned metric state; opaque outside metrics.cc. Metrics are
/// appended and never moved or destroyed, so the pointer a handle
/// captures at registration stays valid for the process lifetime and
/// hot-path updates never touch the registry lock.
struct Metric;

/// Registers (or looks up) the metric `name` of `kind`.
/// `bounds` applies to histograms only.
Metric* Register(const char* name, Kind kind,
                 const std::vector<double>* bounds);

void CounterAdd(Metric* metric, uint64_t n);
void GaugeSet(Metric* metric, int64_t v);
void HistogramObserve(Metric* metric, double v);
double HistogramQuantileOf(const Metric* metric, double q);

}  // namespace internal

/// Estimates the q-quantile (q in [0, 1], clamped) of a bucketed
/// histogram by linear interpolation within the bucket owning the
/// target rank. `bounds` are the inclusive upper bounds, and
/// `bucket_counts` has bounds.size() + 1 entries (last = overflow).
/// The first bucket interpolates from 0; an overflow-bucket hit
/// returns the largest finite bound (the estimate saturates there).
/// Returns 0 when the histogram is empty. This is the single home of
/// the bucket→quantile math shared by Histogram, MetricValue, the
/// throughput bench, and the snapshot exporter.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& bucket_counts, double q);

/// Monotonic event counter.
class Counter {
 public:
  explicit Counter(const char* name)
      : metric_(internal::Register(name, internal::Kind::kCounter, nullptr)) {}

  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    internal::CounterAdd(metric_, n);
  }

 private:
  internal::Metric* metric_;
};

/// Instantaneous level (pool occupancy, queue depth, ...). Set records
/// the current value and folds it into a running maximum; both are
/// reported. Writers are expected to be serialized per gauge (the
/// engine driver loop); concurrent Sets are safe but last-write-wins.
class Gauge {
 public:
  explicit Gauge(const char* name)
      : metric_(internal::Register(name, internal::Kind::kGauge, nullptr)) {}

  void Set(int64_t v) {
    if (!Enabled()) return;
    internal::GaugeSet(metric_, v);
  }

 private:
  internal::Metric* metric_;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in
/// ascending order; one overflow bucket is appended implicitly.
/// Observation counts are deterministic; which bucket a wall-clock
/// observation lands in is not.
class Histogram {
 public:
  Histogram(const char* name, std::vector<double> bounds);

  void Observe(double v) {
    if (!Enabled()) return;
    internal::HistogramObserve(metric_, v);
  }

  /// Quantile estimate over the observations recorded so far (see
  /// HistogramQuantile). Reads the live buckets with relaxed loads —
  /// exact when writers are quiescent, a consistent-enough estimate
  /// otherwise.
  double ValueAtQuantile(double q) const {
    return internal::HistogramQuantileOf(metric_, q);
  }

 private:
  internal::Metric* metric_;
};

/// The default latency bucket ladder (seconds): powers of ten with
/// 1-2-5 subdivisions from 1µs to 100s.
const std::vector<double>& LatencyBucketsSeconds();

/// One metric's merged state at snapshot time.
struct MetricValue {
  std::string name;
  internal::Kind kind = internal::Kind::kCounter;
  /// Counter total, or histogram observation count.
  uint64_t count = 0;
  /// Gauge: last set value and running maximum.
  int64_t value = 0;
  int64_t max = 0;
  /// Histogram: sum of observed values and per-bucket counts
  /// (bounds.size() + 1 entries, last = overflow).
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;

  /// Histogram-only: quantile estimate from the snapshotted buckets
  /// (see HistogramQuantile). Returns 0 for non-histogram kinds.
  double ValueAtQuantile(double q) const;
};

/// Merged view of every registered metric, sorted by name. Exact when
/// writers are quiescent; concurrent writers may or may not be
/// included (each stripe is read once with a relaxed load).
std::vector<MetricValue> Snapshot();

/// The snapshot as one JSON object keyed by metric name: counters as
/// integers, gauges as {"value","max"}, histograms as
/// {"count","sum","bounds","buckets"}. Valid JSON (util/json.h), keys
/// sorted. "{}" when nothing was recorded.
std::string SnapshotJson();

/// The deterministic slice of the snapshot, one metric per line:
/// counter/histogram counts and gauge value/max — everything that must
/// be bit-identical across HTA_THREADS. Timing-dependent fields
/// (histogram sums and bucket assignment) are omitted.
std::string DeterministicDigest();

/// Zeroes every registered metric (counts, gauges, histograms). The
/// registrations themselves persist. Test-only: callers must be
/// quiescent.
void ResetForTesting();

}  // namespace hta::metrics

#endif  // HTA_UTIL_METRICS_H_
