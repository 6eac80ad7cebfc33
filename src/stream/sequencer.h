// Per-shard reordering sequencer, in the mold of Akumuli's ingestion
// sequencer: a bounded time-order staging area between the shard
// queue and the streaming operators.
//
// Why it exists: timed pane mode (StreamingOptions::pane_width_ticks)
// buckets points by record timestamp and commits a pane once its
// frontier, the lowest timestamp that may still arrive, passes the
// pane's end. A collector fleet delivers records only approximately
// in time order — network interleaving and wall-clock skew reorder
// them — so on its own a series' frontier is only its newest
// timestamp: a skewed record would land in the wrong pane, and a
// series that goes quiet never commits its last pane. The sequencer
// restores time order and supplies a shard-wide frontier, its floor.
//
// Model: records are staged in sorted runs (a batch is sorted once,
// then appended to a run it extends or opens a new one); a watermark
// tracks the maximum timestamp ever pushed, advanced per record in
// arrival order. The floor is max(watermark - horizon, highest
// timestamp already emitted). A record below the floor at its own
// arrival is *late* — counted per series and dropped, never emitted (a
// record only raises the watermark, so in-order input is never late,
// whatever its span). Everything at or below the floor is safe to
// release (nothing older can arrive any more, by the late rule) and is
// merge-emitted across runs in (ts, arrival) order. Flush releases the
// remainder at end of stream, raising the floor to the newest
// timestamp; the watermark and the floor survive it.
//
// Emission is therefore globally non-decreasing in ts, across Flush
// and across runs, and two input orders that are permutations of each
// other within the horizon emit the identical sequence — the property
// determinism-under-skew parity tests pin.
//
// Not thread-safe; each shard worker owns one instance.

#ifndef ASAP_STREAM_SEQUENCER_H_
#define ASAP_STREAM_SEQUENCER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stream/record.h"

namespace asap {
namespace stream {

class Sequencer {
 public:
  /// `horizon_ticks`: the reordering window, >= 1. A record is
  /// accepted as long as its timestamp is within horizon_ticks of the
  /// newest timestamp seen and not below one already emitted; older
  /// records are dropped as late. (A horizon of 0 means no
  /// sequencing; ShardedEngine bypasses the sequencer then instead of
  /// building one.)
  explicit Sequencer(int64_t horizon_ticks);

  /// Stages records, drops late ones, and appends every record whose
  /// timestamp has passed out of the reordering horizon to `out` in
  /// (ts, arrival) order. Returns the number of records appended.
  size_t Push(const Record* records, size_t n, RecordBatch* out);

  /// Releases all still-staged records to `out` in (ts, arrival)
  /// order (end of stream). Returns the number appended. The
  /// sequencer remains usable; the watermark and the floor persist, so
  /// a later record older than the newest one flushed is late.
  size_t Flush(RecordBatch* out);

  /// Records accepted (staged) so far.
  uint64_t records_in() const { return records_in_; }
  /// Records emitted to out so far.
  uint64_t emitted() const { return emitted_; }
  /// Records dropped as late (below floor()).
  uint64_t late_dropped() const { return late_dropped_; }
  /// Late drops per series (empty until the first drop).
  const std::unordered_map<SeriesId, uint64_t>& late_by_series() const {
    return late_by_series_;
  }
  /// Records currently staged.
  size_t buffered() const { return records_in_ - emitted_; }
  /// Maximum timestamp ever pushed (INT64_MIN before the first).
  int64_t watermark() const { return watermark_; }
  /// The lowest timestamp still accepted: max(watermark - horizon,
  /// highest timestamp emitted). Records below it are late, so it is
  /// the frontier of every series behind this sequencer.
  int64_t floor() const;
  int64_t horizon_ticks() const { return horizon_; }

 private:
  struct Item {
    Record rec;
    uint64_t seq = 0;  // arrival order, the tie-break at equal ts
  };
  /// One sorted run: items[head..) are pending, sorted by (ts, seq).
  struct Run {
    std::vector<Item> items;
    size_t head = 0;
  };

  /// Appends staged items with ts <= limit to out, merged across runs
  /// in (ts, seq) order; consumed runs are dropped.
  size_t EmitUpTo(int64_t limit, RecordBatch* out);

  int64_t horizon_;
  int64_t watermark_;
  int64_t emitted_max_;  // INT64_MIN before the first emission
  uint64_t next_seq_ = 0;
  uint64_t records_in_ = 0;
  uint64_t emitted_ = 0;
  uint64_t late_dropped_ = 0;
  std::vector<Run> runs_;
  std::vector<Item> scratch_;  // per-Push sort buffer, capacity reused
  std::unordered_map<SeriesId, uint64_t> late_by_series_;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_SEQUENCER_H_
