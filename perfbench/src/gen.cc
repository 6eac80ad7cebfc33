// The load generator: a separate process with one thread. It
// pre-encodes a cycle of ticks per collector connection during set-up,
// then only patches timestamps in place and writes. Commands arrive on
// stdin, replies leave on stdout (one line each):
//
//   READY                            buffers encoded, connections open,
//                                    series registered (binary)
//   GO <t0_ns> <tick_ns> <ticks>  -> DONE <ticks per collector...>
//                                         <lag_p99_ms> <busy_frac>
//
// GO runs the open-loop schedule of analysis.h (Schedule). EOF on stdin
// closes the connections and exits.

#include "gen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "analysis.h"
#include "net/protocol.h"
#include "stream/record.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void SleepUntil(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1000000000;
  ts.tv_nsec = t_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

constexpr size_t kTsDigits = 10;

// One collector connection: the encoded cycle plus where each record's
// timestamp lives in it.
struct Collector {
  int fd = -1;
  size_t records_per_tick = 0;
  std::string buf;
  std::vector<size_t> block_start;  // cycle + 1 entries
  std::vector<uint32_t> ts_pos;     // cycle * records_per_tick
  uint64_t next_tick = 0;           // cumulative over all phases
};

class Generator {
 public:
  Generator(const WorkloadConfig& cfg, uint64_t seed) : cfg_(cfg), seed_(seed) {}

  bool Setup(uint16_t port) {
    collectors_.resize(cfg_.connections);
    for (size_t c = 0; c < cfg_.connections; ++c) {
      Encode(c);
      Collector& col = collectors_[c];
      col.fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (col.fd < 0 ||
          connect(col.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        std::perror("perfbench gen: connect");
        return false;
      }
      // Collectors flush each tick as it is due; Nagle would hold small
      // open-loop writes back for the peer's delayed ACK.
      const int one = 1;
      setsockopt(col.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!cfg_.text) {
        std::string reg;
        size_t j = 0;
        for (size_t s = c; s < cfg_.series; s += cfg_.connections, ++j) {
          asap::net::AppendNameFrame(static_cast<uint32_t>(j), cfg_.SeriesName(s),
                                     &reg);
        }
        if (!WriteAll(col.fd, reg.data(), reg.size())) return false;
      }
    }
    return true;
  }

  struct Result {
    std::vector<uint64_t> ticks;
    double lag_p99_ms = 0.0;
    double busy_frac = 0.0;
  };

  Result RunOpen(int64_t t0, double tick_ns, uint64_t ticks) {
    Result r;
    r.ticks.assign(collectors_.size(), 0);
    Schedule sched;
    sched.t0_ns = t0;
    sched.tick_ns = tick_ns;
    sched.ticks = ticks;
    sched.lag_ticks = cfg_.LagTicks();
    // Coalesce ticks that are already due into one write, up to ~256 KiB.
    std::vector<double> lags_ms;
    const double cpu0 = CpuSeconds();
    SleepUntil(t0);
    const int64_t wall0 = NowNs();
    for (;;) {
      size_t c = collectors_.size();
      int64_t due = 0;
      for (size_t i = 0; i < collectors_.size(); ++i) {
        if (r.ticks[i] >= ticks) continue;
        const int64_t d = sched.Due(i, r.ticks[i]);
        if (c == collectors_.size() || d < due) {
          c = i;
          due = d;
        }
      }
      if (c == collectors_.size()) break;
      if (NowNs() < due) SleepUntil(due);
      const int64_t now = NowNs();
      Collector& col = collectors_[c];
      const uint64_t cap = std::max<uint64_t>(
          1, (256u << 10) / std::max<size_t>(1, col.buf.size() / cfg_.cycle_ticks));
      uint64_t n = 1;
      while (n < cap && r.ticks[c] + n < ticks && sched.Due(c, r.ticks[c] + n) <= now) {
        ++n;
      }
      lags_ms.push_back(static_cast<double>(now - due) * 1e-6);
      Send(&col, n);
      r.ticks[c] += n;
    }
    const int64_t wall = NowNs() - wall0;
    r.busy_frac = (CpuSeconds() - cpu0) / (static_cast<double>(wall) * 1e-9);
    std::sort(lags_ms.begin(), lags_ms.end());
    r.lag_p99_ms = Quantile(lags_ms, 0.99);
    return r;
  }

  void Close() {
    for (Collector& col : collectors_) {
      if (col.fd >= 0) close(col.fd);
      col.fd = -1;
    }
  }

 private:
  void Encode(size_t c) {
    Collector& col = collectors_[c];
    col.records_per_tick = cfg_.SeriesPerCollector(c);
    col.block_start.reserve(cfg_.cycle_ticks + 1);
    col.ts_pos.reserve(cfg_.cycle_ticks * col.records_per_tick);
    std::vector<asap::stream::Record> recs(col.records_per_tick);
    for (size_t q = 0; q < cfg_.cycle_ticks; ++q) {
      col.block_start.push_back(col.buf.size());
      size_t j = 0;
      for (size_t s = c; s < cfg_.series; s += cfg_.connections, ++j) {
        const double v = Value(seed_, cfg_.cycle_ticks, s, q);
        if (cfg_.text) {
          // A fixed-width, zero-padded timestamp so it can be patched
          // in place (the decoder reads it with std::from_chars).
          asap::net::AppendTextRecord(cfg_.SeriesName(s), v, 0, &col.buf);
          col.buf.pop_back();  // "0\n"
          col.buf.pop_back();
          col.ts_pos.push_back(static_cast<uint32_t>(col.buf.size()));
          col.buf.append(kTsDigits, '0');
          col.buf.push_back('\n');
        } else {
          recs[j] = asap::stream::Record{static_cast<uint32_t>(j), v, 0};
        }
      }
      if (!cfg_.text) {
        const size_t start = col.buf.size();
        asap::net::AppendTimedFrame(recs.data(), recs.size(), &col.buf);
        for (size_t k = 0; k < recs.size(); ++k) {
          col.ts_pos.push_back(static_cast<uint32_t>(
              start + asap::net::kBinaryHeaderBytes +
              k * asap::net::kTimedRecordBytes + 12));
        }
      }
    }
    col.block_start.push_back(col.buf.size());
  }

  void PatchTs(Collector* col, size_t q, int64_t ts) {
    const uint32_t* pos = col->ts_pos.data() + q * col->records_per_tick;
    char* base = col->buf.data();
    if (cfg_.text) {
      char digits[kTsDigits];
      int64_t v = ts;
      for (size_t i = kTsDigits; i-- > 0;) {
        digits[i] = static_cast<char>('0' + v % 10);
        v /= 10;
      }
      for (size_t k = 0; k < col->records_per_tick; ++k) {
        std::memcpy(base + pos[k], digits, kTsDigits);
      }
    } else {
      for (size_t k = 0; k < col->records_per_tick; ++k) {
        std::memcpy(base + pos[k], &ts, sizeof(ts));  // little-endian host
      }
    }
  }

  // Sends the collector's next n ticks, stamped with their timestamps.
  void Send(Collector* col, uint64_t n) {
    while (n > 0) {
      const size_t q = col->next_tick % cfg_.cycle_ticks;
      const size_t m = std::min<uint64_t>(n, cfg_.cycle_ticks - q);
      for (size_t i = 0; i < m; ++i) {
        PatchTs(col, q + i, static_cast<int64_t>(col->next_tick + i + 1));
      }
      const size_t from = col->block_start[q];
      const size_t to = col->block_start[q + m];
      if (!WriteAll(col->fd, col->buf.data() + from, to - from)) {
        std::perror("perfbench gen: write");
        std::exit(2);
      }
      col->next_tick += m;
      n -= m;
    }
  }

  const WorkloadConfig& cfg_;
  uint64_t seed_;
  std::vector<Collector> collectors_;
};

}  // namespace

int GenMain(const std::string& workload, uint64_t seed, uint16_t port) {
  const WorkloadConfig* cfg = FindWorkload(workload);
  if (cfg == nullptr) return 2;
  Generator gen(*cfg, seed);
  if (!gen.Setup(port)) return 2;
  std::printf("READY\n");
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    unsigned long long ticks = 0;
    double tick_ns = 0.0;
    long long t0 = 0;
    if (std::sscanf(line, "GO %lld %lf %llu", &t0, &tick_ns, &ticks) != 3) return 2;
    const Generator::Result r = gen.RunOpen(t0, tick_ns, ticks);
    std::printf("DONE");
    for (uint64_t t : r.ticks) std::printf(" %llu", static_cast<unsigned long long>(t));
    std::printf(" %.9g %.9g\n", r.lag_p99_ms, r.busy_frac);
    std::fflush(stdout);
  }
  gen.Close();
  return 0;
}

}  // namespace perfbench
