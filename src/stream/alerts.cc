#include "stream/alerts.h"

#include <cmath>

#include "common/macros.h"
#include "stats/descriptive.h"

namespace asap {
namespace stream {

Result<std::vector<Alert>> FindDeviations(const std::vector<double>& series,
                                          const AlertOptions& options) {
  if (series.size() < FrameSummary::kMinBaselinePoints) {
    return Status::InvalidArgument(
        "need at least 8 points to detect deviations");
  }
  if (options.threshold_sigmas <= 0.0) {
    return Status::InvalidArgument("threshold_sigmas must be positive");
  }
  return ScanDeviations(series, stats::MedianMad(series), options);
}

std::vector<Alert> ScanDeviations(const std::vector<double>& series,
                                  const stats::RobustBaseline& baseline,
                                  const AlertOptions& options) {
  std::vector<Alert> alerts;
  if (baseline.scale <= 0.0) {
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
      z = stats::RobustZ(series[i], baseline);
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
  if (frame.size() < FrameSummary::kMinBaselinePoints) {
    alerts_.clear();
    return false;
  }
  Result<std::vector<Alert>> found = FindDeviations(frame, options_);
  alerts_ = found.ok() ? std::move(found).ValueOrDie() : std::vector<Alert>{};
  return !alerts_.empty();
}

}  // namespace stream
}  // namespace asap
