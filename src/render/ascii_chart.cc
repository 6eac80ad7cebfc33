#include "render/ascii_chart.h"

#include <cstdio>

#include "render/canvas.h"
#include "render/rasterize.h"

namespace asap {
namespace render {

namespace {

std::string RenderWithAxis(const std::vector<double>& values,
                           const ValueRange& range,
                           const AsciiChartOptions& options) {
  Canvas canvas(options.width, options.height);
  PlotSeries(&canvas, values, range);

  std::string out;
  char label[32];
  for (size_t y = 0; y < options.height; ++y) {
    // Label the top, middle and bottom rows with their values.
    const double frac =
        1.0 - static_cast<double>(y) / static_cast<double>(options.height - 1);
    const double value = range.lo + frac * (range.hi - range.lo);
    if (y == 0 || y == options.height / 2 || y + 1 == options.height) {
      std::snprintf(label, sizeof(label), "%8.2f |", value);
    } else {
      std::snprintf(label, sizeof(label), "         |");
    }
    out += label;
    for (size_t x = 0; x < options.width; ++x) {
      out += canvas.Get(static_cast<long>(x), static_cast<long>(y)) ? '*' : ' ';
    }
    out += '\n';
  }
  out += "         +";
  out.append(options.width, '-');
  out += '\n';
  return out;
}

}  // namespace

std::string AsciiChart(const std::vector<double>& values,
                       const AsciiChartOptions& options) {
  std::string out;
  if (!options.title.empty()) {
    out += options.title;
    out += '\n';
  }
  if (values.empty()) {
    out += "(empty series)\n";
    return out;
  }
  out += RenderWithAxis(values, RangeOf(values), options);
  return out;
}

std::string AsciiChartPair(const std::vector<double>& top,
                           const std::string& top_label,
                           const std::vector<double>& bottom,
                           const std::string& bottom_label,
                           const AsciiChartOptions& options) {
  std::string out;
  if (!options.title.empty()) {
    out += options.title;
    out += '\n';
  }
  if (top.empty() || bottom.empty()) {
    out += "(empty series)\n";
    return out;
  }
  const ValueRange range = RangeOf(top, bottom);
  out += top_label;
  out += '\n';
  out += RenderWithAxis(top, range, options);
  out += bottom_label;
  out += '\n';
  out += RenderWithAxis(bottom, range, options);
  return out;
}

}  // namespace render
}  // namespace asap
