// Tagged records: the unit of multi-series ingestion. Real deployments
// of ASAP smooth hundreds of metrics per host across a fleet, not one
// series (§2: dashboards "ingest and process raw data from time series
// databases"); every point therefore carries the id of the series it
// belongs to, in the style of Akumuli's per-ParamId query pipeline.

#ifndef ASAP_STREAM_RECORD_H_
#define ASAP_STREAM_RECORD_H_

#include <cstdint>
#include <vector>

namespace asap {
namespace stream {

/// Identifies one logical time series within a fleet (e.g. one metric
/// on one host). Ids are an implementation detail of the SeriesCatalog
/// (stream/catalog.h), which assigns them densely in intern order —
/// user-facing APIs speak series *names*; nothing outside the catalog
/// should ever mint an id by hand. The width is load-bearing on the
/// wire: binary record frames encode ids as u32 (statically asserted
/// in net/protocol.h).
using SeriesId = uint32_t;

/// One tagged raw point.
///
/// `ts` is the point's timestamp in application-defined ticks (a
/// collector might use milliseconds since epoch; tests use small
/// integers). In timed pane mode (StreamingOptions::pane_width_ticks >
/// 0) it is the point's pane tick: it picks the pane, and a series'
/// newest ts is its pane frontier (window::PaneBuffer). Arrival mode
/// (pane_width_ticks == 0) ticks panes by per-series arrival index
/// and never reads it; a shard sequencer orders records by it in
/// either mode. 0 is the unstamped default: sources that predate
/// timestamps leave it alone, and a wire sender with no clock sends
/// it (every wire record carries a timestamp; net/protocol.h).
struct Record {
  SeriesId series_id = 0;
  double value = 0.0;
  int64_t ts = 0;
};

inline bool operator==(const Record& a, const Record& b) {
  return a.series_id == b.series_id && a.value == b.value && a.ts == b.ts;
}

/// A batch of tagged points, in ingestion order. Per-series order
/// within and across batches is the series' stream order; records of
/// different series may interleave arbitrarily.
using RecordBatch = std::vector<Record>;

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_RECORD_H_
