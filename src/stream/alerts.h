// Deviation alerting on smoothed series — the paper's stated next step
// (§7: "further integrating ASAP with advanced analytics tasks
// including time series classification and alerting"), and its §1
// motivation (the electrical utility watching for "sub-threshold"
// systematic shifts that raw-value alarms miss).
//
// The detector consumes ASAP's *smoothed* output: because smoothing has
// removed small-scale variance while preserving large deviations,
// z-score thresholds on the smoothed series fire on systematic shifts
// at a fraction of the threshold raw-value alarms would need.
//
// The detector is two steps: a baseline (stats::MedianMad, the
// series' median and scaled MAD) and a scan against it. A published
// frame computes its baseline once (StreamingAsap::Frame::summary()),
// so FleetView's anomaly rollup scans cached baselines every tick.

#ifndef ASAP_STREAM_ALERTS_H_
#define ASAP_STREAM_ALERTS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "core/streaming_asap.h"
#include "stats/descriptive.h"

namespace asap {
namespace stream {

/// Detection configuration.
struct AlertOptions {
  /// How many robust standard units a sustained deviation must reach.
  double threshold_sigmas = 3.0;
  /// Minimum run length (in smoothed points) before a deviation counts
  /// as an alert — single-point excursions are kept out.
  size_t min_duration = 3;
};

/// A detected sustained deviation in a smoothed series.
struct Alert {
  /// Span in the smoothed series's indices, [begin, end).
  size_t begin = 0;
  size_t end = 0;
  /// Signed peak z-score within the span (sign = direction).
  double peak_z = 0.0;
  /// True if the deviation is above the baseline.
  bool is_high = false;

  size_t Duration() const { return end - begin; }
};

/// Scans a (smoothed) series for sustained deviations beyond the
/// threshold, in z-scores against the series' median and MAD (a
/// baseline the deviations themselves barely move):
/// ScanDeviations(series, stats::MedianMad(series), options). Fails on
/// series shorter than FrameSummary::kMinBaselinePoints (8) and on a
/// threshold_sigmas that is not positive.
Result<std::vector<Alert>> FindDeviations(const std::vector<double>& series,
                                          const AlertOptions& options = {});

/// The detector's scan over a baseline computed elsewhere (by
/// FindDeviations, or once per published frame by Frame::summary()):
/// runs of points whose |stats::RobustZ| reaches threshold_sigmas for
/// at least min_duration points. A NaN z-score never reaches the
/// threshold, and a scale <= 0 (a flat series) yields no alerts. The
/// options are not validated.
std::vector<Alert> ScanDeviations(const std::vector<double>& series,
                                  const stats::RobustBaseline& baseline,
                                  const AlertOptions& options);

/// Streaming wrapper: feeds raw points to StreamingAsap and evaluates
/// the detector against each refreshed frame.
class SmoothedAlertMonitor {
 public:
  static Result<SmoothedAlertMonitor> Create(
      const StreamingOptions& stream_options,
      const AlertOptions& alert_options = {});

  /// Pushes one raw point; returns true iff the frame refreshed AND
  /// the refreshed frame contains at least one active alert.
  bool Push(double x);

  /// Alerts found in the most recent refreshed frame (spans are in
  /// frame coordinates).
  const std::vector<Alert>& current_alerts() const { return alerts_; }

  const StreamingAsap& asap() const { return asap_; }

 private:
  SmoothedAlertMonitor(StreamingAsap asap, const AlertOptions& options)
      : asap_(std::move(asap)), options_(options) {}

  StreamingAsap asap_;
  AlertOptions options_;
  std::vector<Alert> alerts_;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_ALERTS_H_
