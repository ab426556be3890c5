#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"
#include "util/execution_context.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace cem {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      NotFoundError("x").code(),          OutOfRangeError("x").code(),
      FailedPreconditionError("x").code(), InternalError("x").code(),
      UnimplementedError("x").code(),      InvalidArgumentError("x").code(),
  };
  EXPECT_EQ(codes.size(), 6u);
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << NotFoundError("gone");
  EXPECT_EQ(os.str(), "NOT_FOUND: gone");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ReturnIfErrorMacro) {
  auto helper = [](bool fail) -> Status {
    CEM_RETURN_IF_ERROR(fail ? InternalError("inner") : OkStatus());
    return OkStatus();
  };
  EXPECT_TRUE(helper(false).ok());
  EXPECT_EQ(helper(true).code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(19);
  int first_bucket = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextZipf(100, 1.0);
    EXPECT_LT(v, 100u);
    first_bucket += v == 0 ? 1 : 0;
  }
  // Item 0 should be far more frequent than uniform (1%).
  EXPECT_GT(first_bucket, 500);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\n "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, CharNgrams) {
  EXPECT_EQ(CharNgrams("abcd", 3), (std::vector<std::string>{"abc", "bcd"}));
  EXPECT_EQ(CharNgrams("ab", 3), (std::vector<std::string>{"ab"}));
  EXPECT_TRUE(CharNgrams("", 3).empty());
  EXPECT_TRUE(CharNgrams("abc", 0).empty());
}

// ------------------------------------------------------------ UnionFind --

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_FALSE(uf.Connected(0, 1));
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
}

TEST(UnionFindTest, GroupsAreSortedPartition) {
  UnionFind uf(6);
  uf.Union(4, 1);
  uf.Union(2, 5);
  auto groups = uf.Groups();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(groups[1], (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(groups[2], (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(groups[3], (std::vector<uint32_t>{3}));
}

TEST(UnionFindTest, ResizeAddsSingletons) {
  UnionFind uf(2);
  uf.Union(0, 1);
  uf.Resize(4);
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_FALSE(uf.Connected(0, 3));
}

TEST(UnionFindTest, IdempotentUnion) {
  UnionFind uf(3);
  uf.Union(0, 1);
  uf.Union(0, 1);
  uf.Union(1, 0);
  EXPECT_EQ(uf.num_sets(), 2u);
}

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(pool, 50, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // Must not deadlock.
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Schedule([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception is cleared and the pool stays usable.
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitRethrowsFirstOfManyExceptions) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // Only the first capture is kept; later Waits are clean.
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 100,
                           [](size_t i) {
                             if (i == 17) throw std::runtime_error("bad item");
                           }),
               std::runtime_error);
  // A failed ParallelFor leaves the pool reusable.
  std::atomic<int> counter{0};
  ParallelFor(pool, 10, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelForStopsIssuingAfterFailure) {
  // An early failure abandons the (vast) remainder of the range; the two
  // threads in flight can finish at most a sliver of it first.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(pool, 1000000,
                           [&ran](size_t i) {
                             if (i == 3) throw std::runtime_error("stop");
                             ran.fetch_add(1);
                           }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 1000000);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller participates in the iteration loop, so a ParallelFor issued
  // from inside a pool task completes even when every worker is busy.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  ParallelFor(pool, 4, [&pool, &leaf](size_t) {
    ParallelFor(pool, 8, [&leaf](size_t) { leaf.fetch_add(1); });
  });
  EXPECT_EQ(leaf.load(), 32);
}

TEST(ThreadPoolTest, SharedPoolIsSingletonAndRuns) {
  ThreadPool& a = SharedThreadPool();
  ThreadPool& b = SharedThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> counter{0};
  ParallelFor(a, 25, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 25);
}

// ----------------------------------------------------- ExecutionContext --

TEST(ExecutionContextTest, DefaultUsesSharedPool) {
  const ExecutionContext& ctx = ExecutionContext::Default();
  EXPECT_EQ(&ctx.pool(), &SharedThreadPool());
  EXPECT_GE(ctx.num_threads(), 1u);
  EXPECT_GE(ctx.num_shards(), 1u);
}

TEST(ExecutionContextTest, DedicatedPoolHonoursThreadCount) {
  // Pin the env so an exported CEM_LSH_SHARDS cannot skew the default
  // shard-count assertion (each gtest case runs in its own process).
  unsetenv("CEM_LSH_SHARDS");
  ExecutionContext ctx(3);
  EXPECT_EQ(ctx.num_threads(), 3u);
  EXPECT_NE(&ctx.pool(), &SharedThreadPool());
  // Default shard count scales with the worker count.
  EXPECT_GE(ctx.num_shards(), ctx.num_threads());
}

TEST(ExecutionContextTest, ExplicitShardsAndSeed) {
  ExecutionContext ctx(2, 16, 99);
  EXPECT_EQ(ctx.num_shards(), 16u);
  EXPECT_EQ(ctx.seed(), 99u);
}

// ---------------------------------------------------------- TableWriter --

TEST(TableWriterTest, AlignedOutput) {
  TableWriter t({"name", "v"});
  t.AddRow({"x", "1.5"});
  t.AddRow({"longer", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string expected =
      "| name   | v   |\n"
      "|--------|-----|\n"
      "| x      | 1.5 |\n"
      "| longer | 2   |\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TableWriterTest, CsvOutput) {
  TableWriter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriterTest, NumFormatsPrecision) {
  EXPECT_EQ(TableWriter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TableWriter::Num(2.0, 0), "2");
}

TEST(TableWriterTest, JsonOutputTypesCells) {
  TableWriter t({"name", "v"});
  t.AddRow({"x", "1.5"});
  t.AddRow({"say \"hi\"", "-2"});
  std::ostringstream os;
  t.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"headers\": [\"name\", \"v\"], "
            "\"rows\": [[\"x\", 1.5], [\"say \\\"hi\\\"\", -2]]}");
}

TEST(TableWriterTest, JsonQuotesNonFiniteNumbers) {
  // JSON has no NaN/Inf literals; %.*f renders them as "nan"/"inf", which
  // must stay strings or the report is unparseable.
  TableWriter t({"v"});
  t.AddRow({TableWriter::Num(std::nan(""))});
  t.AddRow({TableWriter::Num(std::numeric_limits<double>::infinity())});
  std::ostringstream os;
  t.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"headers\": [\"v\"], \"rows\": [[\"nan\"], [\"inf\"]]}");
}

// ---------------------------------------------------------------- Logging --

TEST(LoggingTest, ParseLogSeverityAcceptsNamesAnyCase) {
  EXPECT_EQ(ParseLogSeverity("info"), LogSeverity::kInfo);
  EXPECT_EQ(ParseLogSeverity("INFO"), LogSeverity::kInfo);
  EXPECT_EQ(ParseLogSeverity("Warning"), LogSeverity::kWarning);
  EXPECT_EQ(ParseLogSeverity("warn"), LogSeverity::kWarning);
  EXPECT_EQ(ParseLogSeverity("error"), LogSeverity::kError);
  EXPECT_EQ(ParseLogSeverity("FATAL"), LogSeverity::kFatal);
}

TEST(LoggingTest, ParseLogSeverityAcceptsNumericLevels) {
  EXPECT_EQ(ParseLogSeverity("0"), LogSeverity::kInfo);
  EXPECT_EQ(ParseLogSeverity("1"), LogSeverity::kWarning);
  EXPECT_EQ(ParseLogSeverity("2"), LogSeverity::kError);
  EXPECT_EQ(ParseLogSeverity("3"), LogSeverity::kFatal);
}

TEST(LoggingTest, ParseLogSeverityRejectsGarbage) {
  EXPECT_EQ(ParseLogSeverity(""), std::nullopt);
  EXPECT_EQ(ParseLogSeverity("verbose"), std::nullopt);
  EXPECT_EQ(ParseLogSeverity("4"), std::nullopt);
  EXPECT_EQ(ParseLogSeverity("-1"), std::nullopt);
  EXPECT_EQ(ParseLogSeverity("info "), std::nullopt);
}

TEST(LoggingTest, ResolveEnvValueUsesParsedSeverity) {
  bool fell_back = true;
  EXPECT_EQ(ResolveLogSeverityEnvValue("error", &fell_back),
            LogSeverity::kError);
  EXPECT_FALSE(fell_back);
}

TEST(LoggingTest, ResolveEnvValueUnsetMeansInfoWithoutFallbackWarning) {
  bool fell_back = true;
  EXPECT_EQ(ResolveLogSeverityEnvValue(nullptr, &fell_back),
            LogSeverity::kInfo);
  EXPECT_FALSE(fell_back);  // Unset is the default, not a bad value.
}

TEST(LoggingTest, ResolveEnvValueBadValueFallsBackToInfo) {
  bool fell_back = false;
  EXPECT_EQ(ResolveLogSeverityEnvValue("loud", &fell_back),
            LogSeverity::kInfo);
  EXPECT_TRUE(fell_back);
}

TEST(LoggingTest, LogThreadIdStableWithinThread) {
  const uint32_t id = LogThreadId();
  EXPECT_EQ(LogThreadId(), id);
}

// ---------------------------------------------------------------- Arena --

TEST(ArenaTest, CopyStringReturnsStableDistinctStorage) {
  Arena arena;
  const std::string source = "hello arena";
  const std::string_view copied = arena.CopyString(source);
  EXPECT_EQ(copied, source);
  EXPECT_NE(copied.data(), source.data());
  // Exhaust the current block; the earlier view must stay valid (blocks
  // are chained, never reallocated).
  for (int i = 0; i < 1000; ++i) {
    arena.CopyString(std::string(200, 'x'));
  }
  EXPECT_EQ(copied, source);
}

TEST(ArenaTest, AllocateRespectsAlignment) {
  Arena arena(/*block_bytes=*/128);
  arena.AllocateBytes(1);  // misalign the bump pointer
  void* p = arena.Allocate(sizeof(uint64_t), alignof(uint64_t));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
  *static_cast<uint64_t*>(p) = 0xdeadbeefULL;  // must not fault
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena(/*block_bytes=*/64);
  char* big = arena.AllocateBytes(10000);
  ASSERT_NE(big, nullptr);
  std::fill(big, big + 10000, 'z');
  EXPECT_GE(arena.bytes_reserved(), 10000u);
  EXPECT_GE(arena.bytes_allocated(), 10000u);
}

TEST(ArenaTest, BytesAllocatedCountsHandedOutBytes) {
  Arena arena;
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  arena.AllocateBytes(7);
  arena.CopyString("abc");
  EXPECT_EQ(arena.bytes_allocated(), 10u);
}

TEST(ArenaTest, ResetDropsAllocationCount) {
  Arena arena;
  arena.CopyString("some bytes");
  EXPECT_GT(arena.bytes_allocated(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Arena is reusable after Reset.
  EXPECT_EQ(arena.CopyString("again"), "again");
}

TEST(ArenaTest, MoveTransfersStorageAndEmptiesSource) {
  Arena source;
  const std::string_view view = source.CopyString("moved bytes");
  Arena dest(std::move(source));
  EXPECT_EQ(view, "moved bytes");  // storage followed the move
  EXPECT_GT(dest.bytes_allocated(), 0u);
  EXPECT_EQ(source.bytes_allocated(), 0u);
  // The moved-from arena must allocate fresh blocks, not scribble on dest.
  const std::string_view fresh = source.CopyString("fresh");
  EXPECT_EQ(fresh, "fresh");
  EXPECT_EQ(view, "moved bytes");
}

// ----------------------------------------------------------------- Hash --

TEST(HashTest, IncrementalFnvMatchesOneShot) {
  const std::string_view text = "token bytes";
  uint64_t h = kFnv1a64Seed;
  for (char c : text) h = Fnv1a64Byte(h, static_cast<unsigned char>(c));
  EXPECT_EQ(h, Fnv1a64(text));
  EXPECT_EQ(Fnv1a64Append(kFnv1a64Seed, text), Fnv1a64(text));
  EXPECT_EQ(Fnv1a64(""), kFnv1a64Seed);
}

// ------------------------------------------------------------ ScopedTimer --

TEST(ScopedTimerTest, FiresCallbackWithElapsedOnScopeExit) {
  double recorded = -1.0;
  {
    ScopedTimer timer(
        [](void* ctx, double elapsed_ms) {
          *static_cast<double*>(ctx) = elapsed_ms;
        },
        &recorded);
    EXPECT_GE(timer.ElapsedMillis(), 0.0);
  }
  EXPECT_GE(recorded, 0.0);
}

TEST(ScopedTimerTest, CancelSuppressesCallback) {
  bool fired = false;
  {
    ScopedTimer timer(
        [](void* ctx, double) { *static_cast<bool*>(ctx) = true; }, &fired);
    timer.Cancel();
  }
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace cem
