#include "stream/sequencer.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace asap {
namespace stream {

Sequencer::Sequencer(int64_t horizon_ticks)
    : horizon_(horizon_ticks),
      watermark_(std::numeric_limits<int64_t>::min()),
      emitted_max_(std::numeric_limits<int64_t>::min()) {
  ASAP_CHECK_GE(horizon_ticks, 1);
}

int64_t Sequencer::floor() const {
  // watermark - horizon without wraparound near INT64_MIN.
  const int64_t release =
      watermark_ < std::numeric_limits<int64_t>::min() + horizon_
          ? std::numeric_limits<int64_t>::min()
          : watermark_ - horizon_;
  return std::max(release, emitted_max_);
}

size_t Sequencer::Push(const Record* records, size_t n, RecordBatch* out) {
  ASAP_CHECK(records != nullptr || n == 0);
  // Walk the batch in arrival order, advancing the watermark per
  // record: a record is late iff it is below the floor AT ITS OWN
  // ARRIVAL (earlier records of the same batch included). A record can
  // only raise the watermark, so in-order input — however large the
  // batch or the total span — is never late; only a record arriving
  // after a sufficiently newer one, or older than what a Flush already
  // emitted, drops. Stage the on-time records as one sorted run (or an
  // extension of the newest run, when batches arrive already roughly
  // ordered — the common case keeps the run count at 1).
  scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    watermark_ = std::max(watermark_, records[i].ts);
    if (records[i].ts < floor()) {
      late_dropped_ += 1;
      late_by_series_[records[i].series_id] += 1;
      continue;
    }
    scratch_.push_back(Item{records[i], next_seq_++});
    records_in_ += 1;
  }
  if (!scratch_.empty()) {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Item& a, const Item& b) {
                return a.rec.ts != b.rec.ts ? a.rec.ts < b.rec.ts
                                            : a.seq < b.seq;
              });
    Run* tail = runs_.empty() ? nullptr : &runs_.back();
    if (tail != nullptr && !tail->items.empty() &&
        tail->items.back().rec.ts <= scratch_.front().rec.ts) {
      tail->items.insert(tail->items.end(), scratch_.begin(),
                         scratch_.end());
    } else {
      Run run;
      run.items.assign(scratch_.begin(), scratch_.end());
      runs_.push_back(std::move(run));
    }
  }

  return EmitUpTo(floor(), out);
}

size_t Sequencer::Flush(RecordBatch* out) {
  return EmitUpTo(std::numeric_limits<int64_t>::max(), out);
}

size_t Sequencer::EmitUpTo(int64_t limit, RecordBatch* out) {
  size_t appended = 0;
  // K-way merge by (ts, seq): linear min-scan per pop. The run count
  // stays tiny in practice (in-order traffic keeps it at 1; skewed
  // clients add one run per overlapping batch until it drains), so a
  // heap would cost more than it saves.
  for (;;) {
    Run* best = nullptr;
    for (Run& run : runs_) {
      if (run.head == run.items.size()) {
        continue;
      }
      const Item& h = run.items[run.head];
      if (h.rec.ts > limit) {
        continue;
      }
      if (best == nullptr) {
        best = &run;
        continue;
      }
      const Item& b = best->items[best->head];
      if (h.rec.ts < b.rec.ts ||
          (h.rec.ts == b.rec.ts && h.seq < b.seq)) {
        best = &run;
      }
    }
    if (best == nullptr) {
      break;
    }
    out->push_back(best->items[best->head].rec);
    emitted_max_ = out->back().ts;
    best->head += 1;
    appended += 1;
  }
  emitted_ += appended;
  // Drop fully consumed runs so the scan above stays short.
  runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                             [](const Run& r) {
                               return r.head == r.items.size();
                             }),
              runs_.end());
  return appended;
}

}  // namespace stream
}  // namespace asap
