// A small reusable task pool for intra-query parallelism.
//
// The sharded fleet engine (stream/sharded_engine.*) spreads *series*
// across threads, and each series' search runs on its shard's thread.
// This pool splits the work of one FleetView rollup (percentile bands,
// anomaly counts, rankings, history diffs) across cores, under the
// view's ExecPolicy. Design points:
//
//   * One process-wide pool (Global()), lazily started with
//     hardware_concurrency - 1 workers (minimum one). Queries borrow
//     workers per call; there is no per-query thread spawn.
//   * A job wakes only the helpers it can use, never one on the
//     caller's CPU: on Linux each worker is pinned to one CPU of the
//     process's affinity mask, and a fan-out summons workers pinned
//     away from the CPU the caller is on. The kernel may place a woken
//     thread on its waker's CPU, where a helper only takes turns with
//     the caller; pinning keeps a fan-out's speed-up from depending on
//     where threads happen to sit.
//   * The caller always participates in its own job, so ParallelFor
//     makes progress even when every worker is busy elsewhere.
//   * Only one job is broadcast at a time. A ParallelFor that arrives
//     while another is in flight (nested parallelism, or concurrent
//     queries both asking for fan-out) simply runs its indices inline
//     on the calling thread — correct, deadlock-free, and exactly as
//     deterministic, because callers must never encode ordering in
//     which thread runs which index.
//   * Indices are handed out via a single atomic counter, so the
//     *assignment* of indices to threads is racy by construction.
//     Determinism is the callers' contract: each index writes to its
//     own slot, and the caller merges slots in index order afterwards
//     (see core/kernels.h for the canonical reduction shapes).
//
// The pool never outlives the process; workers are detached-joined in
// the destructor of the function-local static.

#ifndef ASAP_COMMON_TASK_POOL_H_
#define ASAP_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_policy.h"
#include "telemetry/metrics.h"

namespace asap {

class TaskPool {
 public:
  /// The process-wide pool (started on first use).
  static TaskPool& Global();

  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Runs fn(i) for every i in [0, count), using up to `parallelism`
  /// threads (the caller plus borrowed workers). Returns after every
  /// index has completed. fn must be safe to call concurrently for
  /// distinct indices. With parallelism <= 1, runs fully inline.
  void ParallelFor(size_t count, size_t parallelism,
                   const std::function<void(size_t)>& fn);

  /// Worker threads backing the pool (at least one).
  size_t worker_count() const { return workers_.size(); }

 private:
  TaskPool();

  // A pool thread: sleeps until a job summons it.
  struct Worker {
    /// The CPU the thread is pinned to, or -1 when it is not pinned.
    int cpu = -1;
    bool summoned = false;  // guarded by mu_
    std::condition_variable wake_cv;
    std::thread thread;
  };

  void WorkerLoop(Worker* self);

  // The currently broadcast job. Guarded by job_mu_; workers read the
  // fields only between their summons and their done signal.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    size_t max_helpers = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> helpers{0};
    std::atomic<size_t> pending{0};
  };

  // Serializes job broadcast: at most one ParallelFor drives the
  // workers at a time; contenders fall back to inline execution.
  std::mutex job_mu_;

  std::mutex mu_;  // guards stop_, active_ and Worker::summoned
  std::condition_variable done_cv_;
  bool stop_ = false;
  Job* active_ = nullptr;

  std::vector<std::unique_ptr<Worker>> workers_;

  // asap_pool_* instruments in MetricsRegistry::Global() (the pool is
  // a true process singleton). shared_ptr handles keep them valid
  // regardless of static destruction order.
  std::shared_ptr<telemetry::Counter> jobs_total_;      // broadcast fan-outs
  std::shared_ptr<telemetry::Counter> inline_total_;    // sequential/contended
  std::shared_ptr<telemetry::Counter> chunks_total_;    // indices executed
  std::shared_ptr<telemetry::Counter> participations_total_;  // helper joins
  std::shared_ptr<telemetry::LatencyHistogram> fanout_nanos_;  // job wall time
};

/// Canonical fan-out helper: runs fn(c) for every chunk c in
/// [0, chunks) under the policy's thread budget. The chunk *layout*
/// must be a pure function of the problem size (never of the thread
/// count) so that results are bitwise-identical at any parallelism;
/// this helper only decides whether chunks run inline or on the pool.
template <typename Fn>
void ParallelChunks(const ExecPolicy& policy, size_t chunks, Fn&& fn) {
  const size_t threads = policy.ResolveThreads();
  if (threads <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) {
      fn(c);
    }
    return;
  }
  TaskPool::Global().ParallelFor(
      chunks, threads, std::function<void(size_t)>(std::forward<Fn>(fn)));
}

}  // namespace asap

#endif  // ASAP_COMMON_TASK_POOL_H_
