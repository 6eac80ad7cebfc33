// In-memory spans for the traced run: (name, layer, start, end,
// parent) recorded by the benchmark around its calls into each layer's
// public functions, written out once at exit with self time per layer.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = root
};

class Tracer {
 public:
  /// Spans kept beyond this are counted but dropped.
  static constexpr size_t kMaxSpans = 500000;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span; returns its id (0 when tracing is off).
  uint64_t Add(const char* name, const char* layer, int64_t start_ns,
               int64_t end_ns, uint64_t parent = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = ++next_id_;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, layer, start_ns, end_ns, id, parent});
    } else {
      ++dropped_;
    }
    return id;
  }

  /// Reserves an id for a parent span whose end is not known yet.
  uint64_t Open() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Close(uint64_t id, const char* name, const char* layer,
             int64_t start_ns, int64_t end_ns, uint64_t parent = 0) {
    if (id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, layer, start_ns, end_ns, id, parent});
    } else {
      ++dropped_;
    }
  }

  /// Self time per layer in seconds: each span's duration minus the
  /// part of it its children cover.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
          } else {
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
          }
        }
        if (open) covered += cur_hi - cur_lo;
      }
      self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
  }

  /// Writes the spans as JSON rows; `header` is spliced in verbatim
  /// (a JSON object body without braces).
  bool Write(const std::string& path, const std::string& header) const {
    const std::map<std::string, double> self = SelfSecondsByLayer();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"self_seconds_by_layer\": {", header.c_str());
    bool first = true;
    for (const auto& [layer, secs] : self) {
      std::fprintf(f, "%s\"%s\": %.9g", first ? "" : ", ", layer.c_str(), secs);
      first = false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "},\n\"spans_dropped\": %zu,\n\"spans\": [\n", dropped_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "[\"%s\", \"%s\", %lld, %lld, %llu, %llu]%s\n", s.name,
                   s.layer, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
