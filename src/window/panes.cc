#include "window/panes.h"

#include <cstddef>

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
    : width_(width), max_panes_(max_panes), epoch_phase_(0) {
  static_assert(offsetof(PaneBuffer, sink_ctx_) + sizeof(void*) ==
                    kPointBytes,
                "a point's members lead the buffer");
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
  const double mean = open_.Mean();
  if (sink_ != nullptr) {
    // Fire with the exact mean the query path will later read back —
    // recovery restores this double bitwise.
    sink_(sink_ctx_, mean);
  }
  Retain(mean);
  open_ = Pane{};
}

void PaneBuffer::Retain(double mean) {
  means_.push_back(mean);
  evicted_.reset();
  if (max_panes_ != 0 && means_.size() > max_panes_) {
    evicted_ = means_.front();
    means_.pop_front();
  }
}

void PaneBuffer::RestoreCompleted(const double* means, size_t n) {
  ASAP_CHECK(means != nullptr || n == 0);
  ASAP_CHECK_EQ(open_.count, 0u);  // restore precedes live ingest
  next_arrival_ += static_cast<int64_t>(n) * width_;
  for (size_t i = 0; i < n; ++i) {
    Retain(means[i]);
  }
}

void PaneBuffer::Reset() {
  means_.clear();
  evicted_.reset();
  open_ = Pane{};
  open_last_ = kMaxTick;
  next_arrival_ = 0;
}

}  // namespace window
}  // namespace asap
