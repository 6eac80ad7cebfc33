#include "storage/recovery.h"

#include <optional>
#include <vector>

#include "common/macros.h"

namespace asap {
namespace storage {

namespace {

// True once a shard worker or a RestoreSeries call has filled the
// engine's slot for `name`.
bool EngineHolds(const stream::ShardedEngine& engine,
                 const std::string& name) {
  const std::optional<stream::SeriesId> id = engine.catalog()->FindId(name);
  return id.has_value() && engine.SnapshotById(*id) != nullptr;
}

}  // namespace

Result<EngineReplayReport> ReplayIntoEngine(const DurableStore& store,
                                            stream::ShardedEngine* engine,
                                            ReplayFidelity /*fidelity*/) {
  ASAP_CHECK(engine != nullptr);
  EngineReplayReport report;
  std::vector<double> means;
  const size_t sids = store.series_count();
  for (uint32_t sid = 0; sid < sids; ++sid) {
    const std::string name = store.NameOf(sid);
    const uint64_t total = store.PaneCount(sid);
    if (total == 0 || !stream::IsValidSeriesName(name)) {
      ++report.series_skipped;
      continue;
    }
    if (EngineHolds(*engine, name)) {
      // Skipped without reading its panes. Restoring none of them
      // changes nothing, but still meets RestoreSeries' refusal of a
      // call made while a run is in flight.
      const Status st = engine->RestoreSeries(name, nullptr, 0,
                                              /*cadenced=*/true);
      if (st.code() == StatusCode::kInternal) {
        return st;
      }
      ++report.series_skipped;
      continue;
    }
    ASAP_RETURN_NOT_OK(store.ReadPanes(sid, 0, total, &means));
    const Status st = engine->RestoreSeries(name, means.data(), means.size(),
                                            /*cadenced=*/true);
    if (st.code() == StatusCode::kInvalidArgument ||
        st.code() == StatusCode::kAlreadyExists) {
      // Per-series rejection (invalid name, operator already live):
      // recovery keeps going and the caller sees the skip count.
      ++report.series_skipped;
      continue;
    }
    ASAP_RETURN_NOT_OK(st);  // a run in flight: nothing can be restored
    ++report.series_restored;
    report.panes_restored += means.size();
  }
  return report;
}

}  // namespace storage
}  // namespace asap
