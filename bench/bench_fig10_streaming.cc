// Figure 10: throughput of streaming ASAP as a function of the
// refresh interval (on-demand updates), for traffic_data and
// machine_temp at a target resolution of 2000 pixels. The paper's
// log-log plot is linear: refreshing half as often doubles throughput.
//
// Methodology: the visible window is prefilled so that every refresh
// pays full-window cost; the stream then loops the dataset under a
// fixed wall-clock budget and we report marginal points/second.

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/streaming_asap.h"
#include "datasets/datasets.h"
#include "stream/source.h"

int main() {
  using asap::bench::Banner;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  Banner(
      "Figure 10: streaming ASAP throughput vs refresh interval\n"
      "(# points between refreshes), resolution 2000 px");

  const std::vector<const char*> names = {"traffic_data", "machine_temp"};
  const std::vector<size_t> intervals = {1, 4, 16, 64, 256, 1024};

  Row({"Dataset", "Refresh interval", "Throughput (pts/s)"}, 20);
  Rule(3, 20);

  for (const char* name : names) {
    const asap::datasets::Dataset ds =
        asap::datasets::MakeByName(name).ValueOrDie();
    const std::vector<double>& data = ds.series.values();

    for (size_t interval : intervals) {
      asap::StreamingOptions options;
      options.resolution = 2000;
      options.visible_points = data.size();
      options.refresh_every_points = interval;
      asap::StreamingAsap op =
          asap::StreamingAsap::Create(options).ValueOrDie();
      op.Prefill(data);  // full window before measuring

      asap::stream::LoopingSource source(data, /*total_points=*/100'000'000);
      const double points_per_second = asap::bench::PushBatchForBudget(
          &source, &op, /*budget_seconds=*/0.8, /*batch_size=*/
          std::max<size_t>(interval, 64));

      Row({name, std::to_string(interval), FmtEng(points_per_second)}, 20);
    }
    Rule(3, 20);
  }

  std::printf(
      "\nPaper reference: throughput grows linearly with the refresh\n"
      "interval (a straight line in log-log space) — refreshing the plot\n"
      "half as often costs half the work.\n");
  return 0;
}
