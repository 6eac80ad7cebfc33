#include "window/panes.h"

#include "common/macros.h"

namespace asap {
namespace window {

namespace {

// x mod width in [0, width).
int64_t Phase(int64_t x, int64_t width) {
  const int64_t r = x % width;
  return r < 0 ? r + width : r;
}

}  // namespace

PaneBuffer::PaneBuffer(int64_t width, int64_t epoch, size_t max_panes)
    : width_(width), epoch_phase_(0), max_panes_(max_panes) {
  ASAP_CHECK_GE(width, 1);
  epoch_phase_ = Phase(epoch, width);
}

int64_t PaneBuffer::LastTickOfBucket(int64_t tick) const {
  // (tick - epoch) mod width from the two phases: every term stays in
  // (-width, width), so no tick a client sends can overflow it.
  int64_t offset = Phase(tick, width_) - epoch_phase_;
  if (offset < 0) {
    offset += width_;
  }
  const int64_t left = width_ - 1 - offset;  // ticks after `tick`
  return tick > kMaxTick - left ? kMaxTick : tick + left;
}

void PaneBuffer::Commit() {
  if (sink_ != nullptr) {
    // Fire with the exact mean the query path will later read back —
    // recovery restores this double bitwise.
    sink_(sink_ctx_, open_.Mean());
  }
  panes_.push_back(open_);
  open_ = Pane{};
  if (max_panes_ != 0 && panes_.size() > max_panes_) {
    panes_.pop_front();
  }
}

void PaneBuffer::RestoreCompleted(const double* means, size_t n) {
  ASAP_CHECK(means != nullptr || n == 0);
  ASAP_CHECK_EQ(open_.count, 0u);  // restore precedes live ingest
  next_arrival_ += static_cast<int64_t>(n) * width_;
  for (size_t i = 0; i < n; ++i) {
    // {sum: mean, count: 1} makes Mean() the recorded value bitwise.
    panes_.push_back(Pane{means[i], 1});
    if (max_panes_ != 0 && panes_.size() > max_panes_) {
      panes_.pop_front();
    }
  }
}

std::vector<double> PaneBuffer::PaneMeans() const {
  std::vector<double> means;
  means.reserve(panes_.size());
  for (const Pane& p : panes_) {
    means.push_back(p.Mean());
  }
  return means;
}

void PaneBuffer::Reset() {
  panes_.clear();
  open_ = Pane{};
  open_last_ = kMaxTick;
  next_arrival_ = 0;
}

}  // namespace window
}  // namespace asap
