// Hand-computed checks of the bench-side Eq. 1-3 reference. Exits
// non-zero on the first mismatch; run.py runs it before every
// benchmark run.
#include <cmath>
#include <cstdio>

#include "eq3_reference.h"

namespace {

int failures = 0;

void ExpectNear(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace servebench;
  // Jaccard: {1,2,3} vs {2,3,4} share 2 of 4 keywords.
  ExpectNear("jaccard overlap", JaccardDistance({1, 2, 3}, {2, 3, 4}), 0.5);
  ExpectNear("jaccard identical", JaccardDistance({5, 9}, {5, 9}), 0.0);
  ExpectNear("jaccard disjoint", JaccardDistance({1}, {2}), 1.0);
  ExpectNear("jaccard both empty", JaccardDistance({}, {}), 0.0);
  ExpectNear("jaccard one empty", JaccardDistance({7}, {}), 1.0);

  // Bundle t1 = {1,2}, t2 = {2,3}, t3 = {4}; worker w = {1,2}.
  //   d(t1,t2) = 1 - 1/3, d(t1,t3) = d(t2,t3) = 1   -> TD = 8/3
  //   rel(t1) = 1, rel(t2) = 1/3, rel(t3) = 0        -> TR = 4/3
  //   motiv = 2 * 0.6 * 8/3 + 0.4 * (3 - 1) * 4/3    =  64/15
  const KeywordSet t1 = {1, 2}, t2 = {2, 3}, t3 = {4}, w = {1, 2};
  const std::vector<const KeywordSet*> bundle = {&t1, &t2, &t3};
  ExpectNear("Eq. 1 diversity", SetDiversity(bundle), 8.0 / 3.0);
  ExpectNear("Eq. 2 relevance", SetRelevance(bundle, w), 4.0 / 3.0);
  ExpectNear("Eq. 3 motivation", Motivation(bundle, w, 0.6, 0.4),
             64.0 / 15.0);
  // Pure relevance weights drop the diversity term: 1 * 2 * 4/3.
  ExpectNear("Eq. 3 beta only", Motivation(bundle, w, 0.0, 1.0), 8.0 / 3.0);
  // A singleton has no pairs and a zero relevance factor; empty is 0.
  ExpectNear("Eq. 3 singleton", Motivation({&t1}, w, 0.5, 0.5), 0.0);
  ExpectNear("Eq. 3 empty", Motivation({}, w, 0.5, 0.5), 0.0);

  if (failures != 0) return 1;
  std::printf("eq3_reference_test: all checks passed\n");
  return 0;
}
