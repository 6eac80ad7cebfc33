#include "core/smooth.h"

#include <cmath>

#include "common/macros.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

const char* SearchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kAsap:
      return "ASAP";
    case SearchStrategy::kExhaustive:
      return "Exhaustive";
    case SearchStrategy::kGrid:
      return "Grid";
    case SearchStrategy::kBinary:
      return "Binary";
  }
  return "Unknown";
}

double SmoothingResult::RoughnessRatio() const {
  if (roughness_before <= 0.0) {
    return 0.0;
  }
  return roughness_after / roughness_before;
}

Result<SmoothingResult> Smooth(const std::vector<double>& values,
                               const SmoothOptions& options) {
  ASAP_RETURN_NOT_OK(ValidateSearchOptions(options.search));
  if (values.size() < 4) {
    return Status::InvalidArgument(
        "need at least 4 points to smooth, got " +
        std::to_string(values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          "non-finite value at index " + std::to_string(i) +
          "; clean or impute the series before smoothing");
    }
  }

  const window::Preaggregated agg =
      window::Preaggregate(values, options.resolution);
  const std::vector<double>& x = agg.series;
  if (x.size() < 4) {
    return Status::InvalidArgument(
        "preaggregated series too short; lower the preaggregation "
        "(resolution) or provide more data");
  }

  // One evaluation context serves the whole search: prefix sums and the
  // series metrics are computed once, every candidate after that is an
  // allocation-free fused pass.
  SeriesContext ctx(x);
  SearchResult search;
  switch (options.strategy) {
    case SearchStrategy::kAsap:
      search = AsapSearch(&ctx, options.search);
      break;
    case SearchStrategy::kExhaustive:
      search = ExhaustiveSearch(&ctx, options.search);
      break;
    case SearchStrategy::kGrid:
      search = GridSearch(&ctx, options.search);
      break;
    case SearchStrategy::kBinary:
      search = BinarySearch(&ctx, options.search);
      break;
  }

  SmoothingResult result;
  result.window = search.window;
  result.points_per_pixel = agg.points_per_pixel;
  result.window_raw_points = search.window * agg.points_per_pixel;
  result.roughness_before = ctx.roughness();
  result.kurtosis_before = ctx.kurtosis();
  result.series = window::Sma(x, search.window);
  // After-metrics through the same fused evaluator the search used, so
  // the reported scores are exactly the ones the decision was made on.
  const CandidateScore after = ScoreWindow(ctx, search.window);
  result.roughness_after = after.roughness;
  result.kurtosis_after = after.kurtosis;
  result.diag = search.diag;
  return result;
}

Result<SmoothingResult> Smooth(const TimeSeries& series,
                               const SmoothOptions& options) {
  return Smooth(series.values(), options);
}

Result<std::vector<double>> ApplyWindow(const std::vector<double>& values,
                                        size_t resolution, size_t window) {
  if (values.empty()) {
    return Status::InvalidArgument("empty input");
  }
  const window::Preaggregated agg = window::Preaggregate(values, resolution);
  if (window < 1 || window > agg.series.size()) {
    return Status::OutOfRange(
        "window " + std::to_string(window) + " out of range [1, " +
        std::to_string(agg.series.size()) + "]");
  }
  return window::Sma(agg.series, window);
}

}  // namespace asap
