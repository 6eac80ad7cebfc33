// Recovery: rebuilding the live fleet from the durable tier.
//
// DurableStore::Open already does the storage-level half (manifest
// load, WAL tail replay, torn-tail truncation). This header is the
// engine-level half: pushing the recovered pane history back through
// the SeriesCatalog + ShardedEngine ingest surface so dashboards see
// the fleet exactly where it left off.
//
// Replay is faithful: every recovered pane replays through the live
// refresh cadence, so published frames, snapshot rings, and frame
// counters come out bitwise identical to a process that never crashed
// (the crash-recovery property tests pin this). Cost: one window
// search per refresh interval of history.

#ifndef ASAP_STORAGE_RECOVERY_H_
#define ASAP_STORAGE_RECOVERY_H_

#include <cstdint>

#include "common/result.h"
#include "storage/store.h"
#include "stream/sharded_engine.h"

namespace asap {
namespace storage {

/// How ReplayIntoEngine replays: faithfully (above), the only mode.
enum class ReplayFidelity {
  kFaithful,
};

/// What ReplayIntoEngine restored.
struct EngineReplayReport {
  uint64_t series_restored = 0;
  uint64_t panes_restored = 0;
  /// Series skipped: no panes, a name no longer valid for the catalog,
  /// or the engine already holds the series (restore is boot-time
  /// only).
  uint64_t series_skipped = 0;
};

/// Replays every series in `store` into `engine` (which must be
/// between runs — typically freshly created). Series register in the
/// catalog by name; pane means flow through
/// ShardedEngine::RestoreSeries. Never fails on per-series oddities
/// (they are counted as skipped); infrastructure errors (chunk IO)
/// and RestoreSeries' refusal of a call made while a run is in flight
/// (Internal, returned at the first series with panes and a valid
/// name, before any is restored) surface as a non-OK status.
///
/// A series the engine already holds (its catalog id has a state, so
/// SnapshotById is non-null) is skipped before its panes are read, so
/// replaying into an engine that holds the fleet reads nothing. That
/// includes a state that holds no points, which only a zero-pane
/// RestoreSeries leaves: replay skips it like any other held series
/// and does not restore the store's panes into it.
Result<EngineReplayReport> ReplayIntoEngine(const DurableStore& store,
                                            stream::ShardedEngine* engine,
                                            ReplayFidelity fidelity);

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_RECOVERY_H_
