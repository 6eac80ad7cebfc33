#include "stream/alerts.h"

#include <cmath>

#include "common/macros.h"
#include "stats/descriptive.h"

namespace asap {
namespace stream {

namespace {

// Median absolute deviation scaled to the normal-consistent sigma.
double Mad(const std::vector<double>& v, double median) {
  std::vector<double> abs_dev(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    abs_dev[i] = std::fabs(v[i] - median);
  }
  return 1.4826 * stats::Median(std::move(abs_dev));
}

}  // namespace

Result<std::vector<Alert>> FindDeviations(const std::vector<double>& series,
                                          const AlertOptions& options) {
  if (series.size() < 8) {
    return Status::InvalidArgument(
        "need at least 8 points to detect deviations");
  }
  if (options.threshold_sigmas <= 0.0) {
    return Status::InvalidArgument("threshold_sigmas must be positive");
  }

  const double center = stats::Median(series);
  const double scale = Mad(series, center);
  std::vector<Alert> alerts;
  if (scale <= 0.0) {
    return alerts;  // perfectly flat series: nothing can deviate
  }

  const size_t min_duration = std::max<size_t>(options.min_duration, 1);
  size_t run_begin = 0;
  double run_peak = 0.0;
  bool in_run = false;
  for (size_t i = 0; i <= series.size(); ++i) {
    double z = 0.0;
    bool beyond = false;
    if (i < series.size()) {
      z = (series[i] - center) / scale;
      beyond = std::fabs(z) >= options.threshold_sigmas;
    }
    if (beyond && !in_run) {
      in_run = true;
      run_begin = i;
      run_peak = z;
    } else if (beyond && in_run) {
      if (std::fabs(z) > std::fabs(run_peak)) {
        run_peak = z;
      }
      // Direction change splits the run.
      if ((z > 0) != (run_peak > 0)) {
        if (i - run_begin >= min_duration) {
          alerts.push_back(Alert{run_begin, i, run_peak, run_peak > 0});
        }
        run_begin = i;
        run_peak = z;
      }
    } else if (!beyond && in_run) {
      in_run = false;
      if (i - run_begin >= min_duration) {
        alerts.push_back(Alert{run_begin, i, run_peak, run_peak > 0});
      }
    }
  }
  return alerts;
}

Result<SmoothedAlertMonitor> SmoothedAlertMonitor::Create(
    const StreamingOptions& stream_options,
    const AlertOptions& alert_options) {
  if (alert_options.threshold_sigmas <= 0.0) {
    return Status::InvalidArgument("threshold_sigmas must be positive");
  }
  ASAP_ASSIGN_OR_RETURN(StreamingAsap asap,
                        StreamingAsap::Create(stream_options));
  return SmoothedAlertMonitor(std::move(asap), alert_options);
}

bool SmoothedAlertMonitor::Push(double x) {
  if (!asap_.Push(x)) {
    return false;
  }
  const std::vector<double>& frame = asap_.frame().series;
  if (frame.size() < 8) {
    alerts_.clear();
    return false;
  }
  Result<std::vector<Alert>> found = FindDeviations(frame, options_);
  alerts_ = found.ok() ? std::move(found).ValueOrDie() : std::vector<Alert>{};
  return !alerts_.empty();
}

}  // namespace stream
}  // namespace asap
