#include "storage/recovery.h"

#include <vector>

#include "common/macros.h"

namespace asap {
namespace storage {

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
    if (name.empty() || total == 0) {
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
