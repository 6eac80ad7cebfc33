// Tests for the SeriesCatalog name-interning table: dense id
// assignment, arena stability of returned views, allocation-stable
// intern behavior, and concurrent intern/resolve safety (the TSan CI
// job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "stream/catalog.h"

namespace asap {
namespace stream {
namespace {

TEST(SeriesCatalogTest, ValidatesNames) {
  EXPECT_TRUE(IsValidSeriesName("host-07/cpu"));
  EXPECT_TRUE(IsValidSeriesName("a"));
  EXPECT_TRUE(IsValidSeriesName(std::string(kMaxSeriesNameBytes, 'x')));
  EXPECT_FALSE(IsValidSeriesName(""));
  EXPECT_FALSE(IsValidSeriesName(std::string(kMaxSeriesNameBytes + 1, 'x')));
  EXPECT_FALSE(IsValidSeriesName("has space"));
  EXPECT_FALSE(IsValidSeriesName("tab\there"));
  EXPECT_FALSE(IsValidSeriesName("new\nline"));
  EXPECT_FALSE(IsValidSeriesName(std::string("\xA5magic")));
  EXPECT_FALSE(IsValidSeriesName(std::string("caf\xC3\xA9")));  // non-ASCII
}

TEST(SeriesCatalogTest, AssignsDenseIdsInInternOrder) {
  SeriesCatalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Intern("web-00/cpu"), 0u);
  EXPECT_EQ(catalog.Intern("web-01/cpu"), 1u);
  EXPECT_EQ(catalog.Intern("web-00/mem"), 2u);
  // Re-interning is idempotent.
  EXPECT_EQ(catalog.Intern("web-01/cpu"), 1u);
  EXPECT_EQ(catalog.size(), 3u);

  EXPECT_EQ(catalog.NameOf(0), "web-00/cpu");
  EXPECT_EQ(catalog.NameOf(2), "web-00/mem");
  EXPECT_EQ(catalog.FindId("web-01/cpu"), std::optional<SeriesId>(1u));
  EXPECT_FALSE(catalog.FindId("never-seen").has_value());
}

TEST(SeriesCatalogTest, NameViewsAreStableAcrossGrowth) {
  // Arena-backed names never move: a view taken early must survive
  // thousands of later interns (this is what lets the wire decoder
  // and FleetView hold names without copying).
  SeriesCatalog catalog;
  catalog.Intern("first/metric");
  const std::string_view early = catalog.NameOf(0);
  const char* early_data = early.data();
  for (int i = 0; i < 5000; ++i) {
    catalog.Intern("filler-" + std::to_string(i));
  }
  EXPECT_EQ(catalog.NameOf(0), "first/metric");
  EXPECT_EQ(catalog.NameOf(0).data(), early_data);
}

TEST(SeriesCatalogTest, InternIsAllocationStableAfterWarmup) {
  // The acceptance criterion: at most one arena growth per N interned
  // names. With 16 KB blocks and these ~12-byte names, N is >= 1000,
  // so 2000 names must fit in a handful of blocks...
  SeriesCatalog catalog;
  size_t total_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string name = "host-" + std::to_string(i) + "/cpu";
    total_bytes += name.size();
    catalog.Intern(name);
  }
  const size_t expected_blocks =
      total_bytes / SeriesCatalog::kArenaBlockBytes + 1;
  EXPECT_LE(catalog.arena_blocks(), expected_blocks + 1);
  EXPECT_EQ(catalog.arena_bytes(), total_bytes);

  // ...and re-interning the warm set grows nothing at all.
  const size_t blocks_before = catalog.arena_blocks();
  const size_t bytes_before = catalog.arena_bytes();
  for (int i = 0; i < 2000; ++i) {
    catalog.Intern("host-" + std::to_string(i) + "/cpu");
  }
  EXPECT_EQ(catalog.arena_blocks(), blocks_before);
  EXPECT_EQ(catalog.arena_bytes(), bytes_before);
  EXPECT_EQ(catalog.size(), 2000u);
}

TEST(SeriesCatalogTest, ConcurrentInternAgreesOnIds) {
  // Many threads intern overlapping name sets while readers resolve:
  // every thread must observe one consistent name <-> id bijection.
  SeriesCatalog catalog;
  const size_t kThreads = 8;
  const size_t kNames = 200;
  std::atomic<bool> go{false};
  std::vector<std::vector<SeriesId>> ids(kThreads,
                                         std::vector<SeriesId>(kNames));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < kNames; ++i) {
        const std::string name = "shared-" + std::to_string(i);
        ids[t][i] = catalog.Intern(name);
        // Immediately resolvable, both directions.
        EXPECT_EQ(catalog.NameOf(ids[t][i]), name);
        EXPECT_EQ(catalog.FindId(name), std::optional<SeriesId>(ids[t][i]));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(catalog.size(), kNames);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  // Ids are dense: exactly {0..kNames-1}.
  std::set<SeriesId> unique(ids[0].begin(), ids[0].end());
  EXPECT_EQ(unique.size(), kNames);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), kNames - 1);
}

}  // namespace
}  // namespace stream
}  // namespace asap
