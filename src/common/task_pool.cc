#include "common/task_pool.h"

#include "common/stopwatch.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace asap {

TaskPool& TaskPool::Global() {
  static TaskPool pool;
  return pool;
}

TaskPool::TaskPool() {
  // hardware_concurrency - 1 (the caller of a job is always its first
  // thread), but never zero: one worker keeps the fan-out handshake —
  // and the data races TSan watches for — exercised on 1-core hosts.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t n = hw > 1 ? hw - 1 : 1;

  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::Global();
  jobs_total_ = reg.GetCounter(
      {"asap_pool_jobs_total", "ParallelFor calls broadcast to workers"});
  inline_total_ = reg.GetCounter(
      {"asap_pool_inline_total",
       "ParallelFor calls run inline (sequential or pool contended)"});
  chunks_total_ =
      reg.GetCounter({"asap_pool_chunks_total", "Task indices executed"});
  participations_total_ = reg.GetCounter(
      {"asap_pool_participations_total", "Worker joins into broadcast jobs"});
  fanout_nanos_ = reg.GetHistogram({"asap_pool_fanout_seconds",
                                    "Broadcast job wall time",
                                    {},
                                    1e-9});

  // On Linux, worker i is pinned to CPU i + 1 (wrapping) of those the
  // main thread may use — not the starting thread's own mask, which
  // may be pinned — so a caller on any CPU finds a worker on another.
  // With one allowed CPU the workers stay unpinned.
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(getpid(), sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
#endif
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
#if defined(__linux__)
    if (cpus.size() > 1) {
      CPU_ZERO(&set);
      CPU_SET(cpus[(i + 1) % cpus.size()], &set);
      if (pthread_setaffinity_np(w->thread.native_handle(), sizeof(set),
                                 &set) == 0) {
        w->cpu = cpus[(i + 1) % cpus.size()];
      }
    }
#endif
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    for (const std::unique_ptr<Worker>& w : workers_) {
      w->wake_cv.notify_one();
    }
  }
  for (const std::unique_ptr<Worker>& w : workers_) {
    w->thread.join();
  }
}

void TaskPool::WorkerLoop(Worker* self) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    self->wake_cv.wait(lk, [&] { return stop_ || self->summoned; });
    self->summoned = false;
    if (stop_) {
      return;
    }
    Job* job = active_;
    if (job == nullptr || job->next.load() >= job->count ||
        job->helpers.load() >= job->max_helpers) {
      continue;  // drained job, or enough helpers already
    }
    // Register under mu_: ParallelFor's completion wait counts us, so
    // `job` stays alive until our matching deregistration below.
    job->helpers.fetch_add(1);
    lk.unlock();
    participations_total_->Increment();

    size_t i;
    uint64_t ran = 0;
    while ((i = job->next.fetch_add(1)) < job->count) {
      (*job->fn)(i);
      ++ran;
      if (job->pending.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> done_lk(mu_);
        done_cv_.notify_all();
      }
    }
    chunks_total_->Add(ran);

    job->helpers.fetch_sub(1);  // last touch of `job`
    lk.lock();
    done_cv_.notify_all();
  }
}

void TaskPool::ParallelFor(size_t count, size_t parallelism,
                           const std::function<void(size_t)>& fn) {
  if (count == 0) {
    return;
  }
  const bool sequential = parallelism <= 1 || count == 1 || workers_.empty();
  // At most one job drives the workers; a ParallelFor issued while
  // another is in flight (nested fan-out, or two queries racing) runs
  // inline instead of queueing — simple, deadlock-free, and
  // result-identical because index->thread assignment never matters.
  std::unique_lock<std::mutex> job_lk(job_mu_, std::defer_lock);
  if (sequential || !job_lk.try_lock()) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    inline_total_->Increment();
    chunks_total_->Add(count);
    return;
  }

  jobs_total_->Increment();
  telemetry::ScopedTimer fanout_timer(fanout_nanos_.get());

  Job job;
  job.fn = &fn;
  job.count = count;
  job.max_helpers = parallelism - 1;  // the caller is the first thread
  job.pending.store(count);
  {
    // Summon only the helpers the job can use, none pinned to the
    // caller's CPU (there it would only take turns with the caller).
#if defined(__linux__)
    const int here = sched_getcpu();
#else
    const int here = -1;
#endif
    std::lock_guard<std::mutex> lk(mu_);
    active_ = &job;
    size_t summoned = 0;
    for (const std::unique_ptr<Worker>& w : workers_) {
      if (summoned == job.max_helpers) {
        break;
      }
      if (w->cpu >= 0 && w->cpu == here) {
        continue;
      }
      w->summoned = true;
      w->wake_cv.notify_one();
      ++summoned;
    }
  }

  // The caller always participates, so the job completes even if every
  // worker stays busy elsewhere.
  size_t i;
  uint64_t ran = 0;
  while ((i = job.next.fetch_add(1)) < count) {
    fn(i);
    ++ran;
    if (job.pending.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  chunks_total_->Add(ran);

  std::unique_lock<std::mutex> lk(mu_);
  active_ = nullptr;
  // A summoned worker that has not woken yet must not join a later job
  // that did not summon it.
  for (const std::unique_ptr<Worker>& w : workers_) {
    w->summoned = false;
  }
  done_cv_.wait(lk, [&] {
    return job.pending.load() == 0 && job.helpers.load() == 0;
  });
}

}  // namespace asap
