// Execution policy of FleetView's cross-series rollups: how many
// threads a rollup may fan out to. Rollup results are bitwise-identical
// at every thread count: each rollup splits its work into chunks whose
// layout depends only on the problem size (never on the thread count)
// and merges the chunk results in chunk order on the calling thread
// (see common/task_pool.h), which is what lets the parity tests pin
// 1-vs-T-thread outputs with memcmp. One series' search, ACF and
// candidate scores always run on the calling thread; the sharded
// engine parallelizes across series instead.

#ifndef ASAP_COMMON_EXEC_POLICY_H_
#define ASAP_COMMON_EXEC_POLICY_H_

#include <cstddef>
#include <thread>

namespace asap {

/// Per-view execution configuration of FleetView (see
/// stream/fleet_view.h).
struct ExecPolicy {
  /// Worker threads a rollup may fan out to. 1 (the default) runs
  /// fully inline on the calling thread; 0 means "all hardware
  /// threads".
  size_t threads = 1;

  /// `threads` with 0 resolved to the hardware concurrency (>= 1).
  size_t ResolveThreads() const {
    if (threads != 0) {
      return threads;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }
};

}  // namespace asap

#endif  // ASAP_COMMON_EXEC_POLICY_H_
