// Bench-side reference for the paper's Eq. 1-3, computed from plain
// sorted keyword-id sets. It shares no code with libhta, so the
// benchmark can recompute every solver-built bundle's motivation and
// check the objective the service reports for each iteration.
#ifndef SERVEBENCH_EQ3_REFERENCE_H_
#define SERVEBENCH_EQ3_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// A keyword set as ascending, distinct keyword ids.
using KeywordSet = std::vector<uint32_t>;

/// Jaccard distance 1 - |a ∩ b| / |a ∪ b|; two empty sets are at 0.
inline double JaccardDistance(const KeywordSet& a, const KeywordSet& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - common;
  if (uni == 0) return 0.0;
  return 1.0 - static_cast<double>(common) / static_cast<double>(uni);
}

/// Eq. 1: TD(T') = sum over unordered pairs of d(t_k, t_l).
inline double SetDiversity(const std::vector<const KeywordSet*>& bundle) {
  double total = 0.0;
  for (size_t k = 0; k < bundle.size(); ++k) {
    for (size_t l = k + 1; l < bundle.size(); ++l) {
      total += JaccardDistance(*bundle[k], *bundle[l]);
    }
  }
  return total;
}

/// Eq. 2: TR(T', w) = sum over t of rel(t, w) = 1 - d(t, w).
inline double SetRelevance(const std::vector<const KeywordSet*>& bundle,
                           const KeywordSet& interests) {
  double total = 0.0;
  for (const KeywordSet* task : bundle) {
    total += 1.0 - JaccardDistance(*task, interests);
  }
  return total;
}

/// Eq. 3: motiv(T', w) = 2 alpha TD(T') + beta (|T'| - 1) TR(T', w);
/// 0 for an empty bundle.
inline double Motivation(const std::vector<const KeywordSet*>& bundle,
                         const KeywordSet& interests, double alpha,
                         double beta) {
  if (bundle.empty()) return 0.0;
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * alpha * SetDiversity(bundle) +
         beta * size_minus_one * SetRelevance(bundle, interests);
}

}  // namespace servebench

#endif  // SERVEBENCH_EQ3_REFERENCE_H_
