// Terminal-friendly charts for the example programs: the "metrics
// console" of the paper's DevOps case study, in ASCII.

#ifndef ASAP_RENDER_ASCII_CHART_H_
#define ASAP_RENDER_ASCII_CHART_H_

#include <string>
#include <vector>

namespace asap {
namespace render {

/// Chart appearance.
struct AsciiChartOptions {
  size_t width = 72;   // plot columns (excluding axis labels)
  size_t height = 14;  // plot rows
  /// Optional title printed above the chart.
  std::string title;
};

/// Renders the series as an ASCII line chart with a y-axis label column.
std::string AsciiChart(const std::vector<double>& values,
                       const AsciiChartOptions& options = {});

/// Renders two series stacked (same y-range), e.g. raw vs. ASAP —
/// the layout of the paper's Figure 1/2/3 case studies.
std::string AsciiChartPair(const std::vector<double>& top,
                           const std::string& top_label,
                           const std::vector<double>& bottom,
                           const std::string& bottom_label,
                           const AsciiChartOptions& options = {});

}  // namespace render
}  // namespace asap

#endif  // ASAP_RENDER_ASCII_CHART_H_
