// Pane-based sliding-window sub-aggregation ("No pane, no gain",
// Li et al., SIGMOD Record 2005), the technique §4.5 adapts.
//
// A sliding-window aggregate over disjoint panes costs one pass per
// pane instead of one per window. Streaming ASAP keeps exactly such a
// pane list, sized at the point-to-pixel ratio, and re-renders from
// the pane means.

#ifndef ASAP_WINDOW_PANES_H_
#define ASAP_WINDOW_PANES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

namespace asap {
namespace window {

/// A pane: a disjoint sub-aggregate of `count` consecutive points.
struct Pane {
  double sum = 0.0;
  size_t count = 0;

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Streaming pane builder with one pane model. Every point carries a
/// tick and lands in bucket floor((tick - epoch) / width). The open
/// pane commits once, when the *frontier* — the lowest tick that may
/// still arrive — reaches its end:
///
///   - arrival input (no ticks): a point's tick is its arrival index
///     and the frontier after it is that index + 1, so a pane commits
///     on its width-th point;
///   - timed input: the frontier is the newest tick seen, so the open
///     pane commits when a point at or past its end arrives (a point
///     older than the open pane joins it);
///   - AdvanceFrontier raises it from outside, e.g. to a sequencer's
///     release floor, so a series that goes quiet still commits.
///
/// A buffer takes one kind of input for its lifetime. It retains the
/// newest `max_panes` committed panes (the visible window of
/// Streaming ASAP).
class PaneBuffer {
 public:
  /// Observer fired once per *completed* pane with its mean — the
  /// durable-store hookup (panes, not raw points, are the durable
  /// unit). A plain function pointer + context keeps the common
  /// no-sink case a single branch on the pane-commit path.
  using PaneSink = void (*)(void* ctx, double mean);

  /// Bytes at the front of the buffer that a timed point joining the
  /// open pane touches (see the members).
  static constexpr size_t kPointBytes = 48;

  /// width: ticks per pane (>= 1); epoch: the tick pane 0 starts at;
  /// max_panes: retained pane count (0 = unbounded).
  PaneBuffer(int64_t width, int64_t epoch, size_t max_panes);

  /// Adds points xs[0..n) in tick order, calling on_commit() right
  /// after each pane commit, before the next point joins a pane (so a
  /// caller can render exactly the committed panes). `ticks` holds the
  /// points' ticks, or is nullptr for arrival input.
  template <typename OnCommit>
  void Add(const double* xs, const int64_t* ticks, size_t n,
           OnCommit&& on_commit);

  /// Raises the frontier: commits the open pane if `frontier` is past
  /// its last tick. Returns true if a pane committed.
  bool AdvanceFrontier(int64_t frontier) {
    if (open_.count == 0 || frontier <= open_last_) {
      return false;
    }
    Commit();
    return true;
  }

  /// Last tick of the open pane; nullopt when none is open.
  std::optional<int64_t> open_pane_last() const {
    return open_.count > 0 ? std::optional<int64_t>(open_last_) : std::nullopt;
  }

  /// Installs (or clears, with nullptr) the pane-completion sink.
  void set_pane_sink(PaneSink sink, void* ctx) {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  /// Restores `n` previously completed panes (crash recovery): each
  /// mean is retained as recorded, bitwise, and the arrival clock
  /// advances by n * width. The sink is NOT fired — these panes are
  /// already durable. Requires no open pane.
  void RestoreCompleted(const double* means, size_t n);

  /// Means of the retained (complete) panes, oldest first. A committed
  /// pane is kept as its mean: nothing reads its sum or count again.
  const std::deque<double>& means() const { return means_; }

  /// Mean of the pane the latest commit (or the last pane of the
  /// latest restore) pushed out of the window; nullopt if it evicted
  /// none. A caller keeping window state up to date in its commit
  /// callback reads the leaving pane here.
  std::optional<double> evicted() const { return evicted_; }

  /// Number of retained complete panes.
  size_t size() const { return means_.size(); }

  void Reset();

 private:
  /// Opens the pane holding `tick`. The bucket after the last
  /// committed one, the common case, needs no division.
  void Open(int64_t tick) {
    if (tick > open_last_ && open_last_ <= kMaxTick - width_ &&
        tick <= open_last_ + width_) {
      open_last_ += width_;
    } else {
      open_last_ = LastTickOfBucket(tick);
    }
  }
  /// Last tick of the bucket holding `tick`, clamped to the largest
  /// tick (no later tick exists); exact for any int64 tick.
  int64_t LastTickOfBucket(int64_t tick) const;
  /// Retains the open pane (see Retain).
  void Commit();
  /// Appends a committed pane's mean, evicting the oldest pane beyond
  /// max_panes.
  void Retain(double mean);

  static constexpr int64_t kMaxTick = std::numeric_limits<int64_t>::max();

  // The members are in the order ingest touches them. A timed point
  // that joins the open pane touches only the open pane, its last tick
  // and the width; with the sink, which an owner with a durable store
  // sets around every run, they fill the first kPointBytes. An owner
  // that places the buffer early in a 64-byte line (StreamingAsap
  // does) so keeps such a point on one line. A commit touches the
  // retained window's members, which come next; the arrival clock and
  // the epoch, read by arrival input and by a jump to a later bucket,
  // come last.
  Pane open_;  // the open pane; open iff open_.count > 0
  /// Last tick of the open pane, or of the last committed one while
  /// none is open (kMaxTick before any: no shortcut), so the next
  /// bucket opens without a division. Inclusive, so the bucket holding
  /// the largest tick needs no end past it.
  int64_t open_last_ = kMaxTick;
  int64_t width_;
  PaneSink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
  std::optional<double> evicted_;  // see evicted()
  size_t max_panes_;
  std::deque<double> means_;  // complete panes only
  /// Tick of the next arrival-input point.
  int64_t next_arrival_ = 0;
  int64_t epoch_phase_;  // epoch mod width, in [0, width)
};

template <typename OnCommit>
void PaneBuffer::Add(const double* xs, const int64_t* ticks, size_t n,
                     OnCommit&& on_commit) {
  size_t i = 0;
  while (i < n) {
    const int64_t tick = ticks != nullptr ? ticks[i] : next_arrival_;
    // A point past the open pane's last tick is the frontier passing
    // it: commit before the point joins a later pane.
    if (AdvanceFrontier(tick)) {
      on_commit();
    }
    if (open_.count == 0) {
      Open(tick);
    }
    // Sum the run of points that fall in the open pane: one compare
    // per point, no division.
    double sum = open_.sum;
    size_t end = i;
    if (ticks == nullptr) {
      end += static_cast<size_t>(std::min<int64_t>(
          static_cast<int64_t>(n - i), open_last_ - next_arrival_ + 1));
      for (size_t k = i; k < end; ++k) {
        sum += xs[k];
      }
      next_arrival_ += static_cast<int64_t>(end - i);
    } else {
      for (; end < n && ticks[end] <= open_last_; ++end) {
        sum += xs[end];
      }
    }
    open_.sum = sum;
    open_.count += end - i;
    i = end;
    // Arrival input: the frontier is the next arrival index, so the
    // pane's last point commits it.
    if (ticks == nullptr && AdvanceFrontier(next_arrival_)) {
      on_commit();
    }
  }
}

}  // namespace window
}  // namespace asap

#endif  // ASAP_WINDOW_PANES_H_
