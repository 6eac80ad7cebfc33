// Cross-module integration tests: the Table-2 pipeline on every
// dataset, batch and streaming, streaming-vs-batch consistency, CSV
// round trips through the full operator, and the paper's qualitative
// anchors end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>

#include "core/acf_peaks.h"
#include "core/metrics.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "datasets/datasets.h"
#include "render/ascii_chart.h"
#include "render/pixel_error.h"
#include "stats/normalize.h"
#include "ts/csv.h"
#include "window/preaggregate.h"

namespace asap {
namespace {

// --- The Table 2 pipeline on every dataset -----------------------------------

class Table2PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Table2PipelineTest, AsapTracksExhaustiveAt1200px) {
  datasets::Dataset ds = datasets::MakeByName(GetParam()).ValueOrDie();

  SmoothOptions asap_options;
  asap_options.resolution = 1200;
  asap_options.strategy = SearchStrategy::kAsap;
  Result<SmoothingResult> asap = Smooth(ds.series.values(), asap_options);
  ASSERT_TRUE(asap.ok()) << GetParam();

  SmoothOptions ex_options = asap_options;
  ex_options.strategy = SearchStrategy::kExhaustive;
  Result<SmoothingResult> exhaustive = Smooth(ds.series.values(), ex_options);
  ASSERT_TRUE(exhaustive.ok()) << GetParam();

  // Quality: ASAP must stay within 10% of exhaustive's roughness.
  EXPECT_LE(asap->roughness_after,
            exhaustive->roughness_after * 1.10 + 1e-9)
      << GetParam();
  // Cost: meaningfully fewer candidate evaluations.
  EXPECT_LT(asap->diag.candidates_evaluated,
            exhaustive->diag.candidates_evaluated)
      << GetParam();
  // Feasibility.
  EXPECT_GE(asap->kurtosis_after, asap->kurtosis_before - 1e-9)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, Table2PipelineTest,
                         ::testing::Values("EEG", "Power", "traffic_data",
                                           "machine_temp", "Twitter_AAPL",
                                           "ramp_traffic", "sim_daily",
                                           "Taxi", "Temp", "Sine"));

// Streaming ASAP on every Table 2 dataset: a per-pane operator slides
// its ACF, and at every refresh it must pick the window of the FFT
// refresh it replaces (seed with the previous window if still
// feasible, then AsapSearchWithAcf on ComputeAcfInfo of the visible
// panes) after evaluating as many candidates, over a window filled
// once and turned over three times.
class Table2StreamingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Table2StreamingTest, SlidingRefreshesPickTheFftRefreshWindow) {
  const datasets::Dataset ds = datasets::MakeByName(GetParam()).ValueOrDie();
  const std::vector<double>& data = ds.series.values();
  StreamingOptions options;
  options.resolution = 300;
  options.visible_points = data.size() / 4;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  const size_t pane = op.pane_size();
  const size_t window_panes = options.visible_points / pane;
  ASSERT_EQ(op.acf_rebuild_period(), window_panes) << GetParam();

  std::deque<double> panes;
  size_t previous = 0;
  uint64_t candidates = 0;
  size_t sliding_refreshes = 0;
  for (size_t start = 0; start + pane <= data.size(); start += pane) {
    // The pane mean as window::PaneBuffer computes it.
    double sum = 0.0;
    for (size_t i = 0; i < pane; ++i) {
      sum += data[start + i];
    }
    panes.push_back(sum / static_cast<double>(pane));
    if (panes.size() > window_panes) {
      panes.pop_front();
    }
    const size_t refreshed = op.PushBatch(data.data() + start, pane);
    ASSERT_EQ(refreshed, panes.size() >= 4 ? 1u : 0u) << GetParam();
    if (refreshed == 0) {
      continue;
    }

    const std::vector<double> x(panes.begin(), panes.end());
    SeriesContext ctx(x);
    const AcfInfo acf = ComputeAcfInfo(
        x, options.search.ResolveMaxWindow(x.size()) + 1,
        options.search.acf_threshold);
    AsapState state;
    if (previous >= 1 && previous <= x.size()) {
      candidates += 1;
      const CandidateScore score = ScoreWindow(ctx, previous);
      if (score.kurtosis >= ctx.kurtosis()) {
        state.window = previous;
        state.roughness = score.roughness;
        state.has_feasible = true;
        const double corr = previous < acf.correlations.size()
                                ? acf.correlations[previous]
                                : 0.0;
        state.lower_bound =
            std::max(1.0, WindowLowerBound(previous, corr, acf.max_acf));
      }
    }
    const SearchResult want =
        AsapSearchWithAcf(&ctx, acf, options.search, &state);
    candidates += want.diag.candidates_evaluated;
    ASSERT_EQ(op.frame().window, want.window)
        << GetParam() << " at pane " << start / pane;
    // The ACF pruning saw the same peaks and bounds: same candidates.
    ASSERT_EQ(op.frame().candidates_evaluated, candidates)
        << GetParam() << " at pane " << start / pane;
    previous = want.window;
    sliding_refreshes += panes.size() == window_panes ? 1 : 0;
  }
  EXPECT_GE(sliding_refreshes, 2 * window_panes) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, Table2StreamingTest,
                         ::testing::Values("EEG", "Power", "traffic_data",
                                           "machine_temp", "Twitter_AAPL",
                                           "ramp_traffic", "sim_daily",
                                           "Taxi", "Temp", "Sine"));

TEST(Table2SpotChecksTest, TwitterAaplLeftUnsmoothedByBothSearches) {
  datasets::Dataset ds = datasets::MakeTwitterAapl();
  for (SearchStrategy strategy :
       {SearchStrategy::kAsap, SearchStrategy::kExhaustive}) {
    SmoothOptions options;
    options.resolution = 1200;
    options.strategy = strategy;
    Result<SmoothingResult> r = Smooth(ds.series.values(), options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->window, 1u) << SearchStrategyName(strategy);
  }
}

TEST(Table2SpotChecksTest, PeriodicDatasetsGetSmoothed) {
  for (const char* name : {"Taxi", "Power", "Sine", "Temp"}) {
    datasets::Dataset ds = datasets::MakeByName(name).ValueOrDie();
    SmoothOptions options;
    options.resolution = 1200;
    Result<SmoothingResult> r = Smooth(ds.series.values(), options);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_GT(r->window, 1u) << name;
    EXPECT_LT(r->RoughnessRatio(), 0.8) << name;
  }
}

// --- Streaming vs batch -------------------------------------------------------

TEST(StreamingBatchConsistencyTest, TaxiStreamConvergesToBatchWindow) {
  datasets::Dataset taxi = datasets::MakeTaxi();
  const std::vector<double>& data = taxi.series.values();

  StreamingOptions stream_options;
  stream_options.resolution = 600;
  stream_options.visible_points = data.size();
  StreamingAsap op = StreamingAsap::Create(stream_options).ValueOrDie();
  op.PushBatch(data);

  SmoothOptions batch_options;
  batch_options.resolution = 600;
  Result<SmoothingResult> batch = Smooth(data, batch_options);
  ASSERT_TRUE(batch.ok());
  ASSERT_GT(op.frame().refreshes, 0u);
  // Same data, same pane grid: identical window.
  EXPECT_EQ(op.frame().window, batch->window);
}

// --- CSV round trip through the operator ----------------------------------------

TEST(PipelineTest, CsvInSmoothCsvOut) {
  datasets::Dataset sine = datasets::MakeSine();
  const std::string in_path = ::testing::TempDir() + "/asap_pipe_in.csv";
  const std::string out_path = ::testing::TempDir() + "/asap_pipe_out.csv";
  ASSERT_TRUE(WriteCsv(sine.series, in_path).ok());

  Result<TimeSeries> loaded = ReadCsv(in_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), sine.series.size());

  SmoothOptions options;
  options.resolution = 400;
  Result<SmoothingResult> smoothed = Smooth(*loaded, options);
  ASSERT_TRUE(smoothed.ok());

  TimeSeries out(smoothed->series, loaded->start(),
                 loaded->interval() *
                     static_cast<double>(smoothed->points_per_pixel),
                 "smoothed");
  ASSERT_TRUE(WriteCsv(out, out_path).ok());
  Result<TimeSeries> back = ReadCsv(out_path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), smoothed->series.size());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

// --- Qualitative anchors from the paper -------------------------------------------

TEST(PaperAnchorsTest, SmoothedTaxiHighlightsThanksgivingDip) {
  // Figure 1: in ASAP's output the Thanksgiving week must be the global
  // minimum region of the plot.
  datasets::Dataset taxi = datasets::MakeTaxi();
  SmoothOptions options;
  options.resolution = 800;
  Result<SmoothingResult> r = Smooth(taxi.series.values(), options);
  ASSERT_TRUE(r.ok());
  const std::vector<double>& y = r->series;
  size_t argmin = 0;
  for (size_t i = 1; i < y.size(); ++i) {
    if (y[i] < y[argmin]) {
      argmin = i;
    }
  }
  // Map the smoothed index back to a raw index (bucket center).
  const size_t raw_index = argmin * r->points_per_pixel +
                           r->window_raw_points / 2;
  EXPECT_GE(raw_index, taxi.info.anomaly_begin);
  EXPECT_LT(raw_index, taxi.info.anomaly_end + taxi.info.anomaly_end / 10);
}

TEST(PaperAnchorsTest, AsapIsVisuallyLossyButSmooth) {
  // Table 4's trade-off on one dataset: ASAP's pixel error far exceeds
  // M4-style fidelity, yet its roughness is far lower.
  datasets::Dataset sine = datasets::MakeSine();
  const std::vector<double> raw = stats::ZScore(sine.series.values());
  SmoothOptions options;
  options.resolution = 800;
  Result<SmoothingResult> r = Smooth(raw, options);
  ASSERT_TRUE(r.ok());
  const double err = render::PixelError(raw, r->series, 800, 600);
  EXPECT_GT(err, 0.5);
  EXPECT_LT(Roughness(r->series), 0.5 * Roughness(raw));
}

TEST(PaperAnchorsTest, AsciiDashboardRendersTaxiPair) {
  // The Figure 1 layout as the examples render it.
  datasets::Dataset taxi = datasets::MakeTaxi();
  SmoothOptions options;
  options.resolution = 800;
  Result<SmoothingResult> r = Smooth(taxi.series.values(), options);
  ASSERT_TRUE(r.ok());
  const std::string art = render::AsciiChartPair(
      stats::ZScore(taxi.series.values()), "Original",
      stats::ZScore(r->series), "ASAP", {});
  EXPECT_NE(art.find("Original"), std::string::npos);
  EXPECT_NE(art.find("ASAP"), std::string::npos);
  EXPECT_GT(art.size(), 500u);
}

TEST(PaperAnchorsTest, PreaggregationPreservesWindowQuality) {
  // Fig. 9's quality claim: searching on preaggregated data yields
  // roughness close to searching raw data (here within 2x, usually
  // far closer), at a fraction of the cost.
  datasets::Dataset power = datasets::MakePower();
  SmoothOptions raw_options;
  raw_options.resolution = 0;
  Result<SmoothingResult> raw = Smooth(power.series.values(), raw_options);
  SmoothOptions agg_options;
  agg_options.resolution = 1200;
  Result<SmoothingResult> agg = Smooth(power.series.values(), agg_options);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(agg.ok());
  EXPECT_LT(agg->diag.candidates_evaluated + 1,
            raw->diag.candidates_evaluated + 1);
  // Compare end-state roughness on a common footing: ratio to its own
  // input roughness.
  EXPECT_LT(agg->RoughnessRatio(), raw->RoughnessRatio() * 2.0 + 0.2);
}

}  // namespace
}  // namespace asap
