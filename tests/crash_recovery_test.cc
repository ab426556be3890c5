// Crash-recovery property suite: kill a persisted streaming run at
// randomized points of its durable write stream (torn final WAL record,
// half-written snapshot shard), or damage its files at rest (missing
// shard, truncated MANIFEST, flipped checksum byte), then Recover() and
// replay the remaining stream — the final matches, cover AND work
// counters must be bit-identical to an uninterrupted run, across thread
// counts, shard counts and arrival seeds. The chunk-atomic write-ahead
// discipline is what carries the counter half: every recoverable insert
// count is a chunk boundary, so replay reproduces the exact convergence
// drains of the original run.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/bib_generator.h"
#include "mln/mln_matcher.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "stream/streaming_matcher.h"
#include "util/execution_context.h"
#include "util/io.h"
#include "util/random.h"

namespace cem {
namespace {

namespace fs = std::filesystem;

using persist::PersistentStreamingMatcher;
using persist::PersistOptions;
using persist::RecoveryInfo;
using stream::StreamingMatcher;
using stream::StreamingOptions;

std::string ScratchDir(const std::string& name) {
  // Suffixed with the pid: ctest -j runs each discovered case in its own
  // process, and concurrently-scheduled cases of one suite must not race
  // remove_all/create on a shared path.
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("crash_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<data::Dataset> MakeSmallBib(uint64_t seed) {
  data::BibConfig config = data::BibConfig::DblpLike(0.05);
  config.seed = seed;
  return data::GenerateBibDataset(config);
}

std::vector<data::EntityId> ShuffledRefs(const data::Dataset& dataset,
                                         uint64_t seed) {
  std::vector<data::EntityId> refs = dataset.author_refs();
  Rng rng(seed);
  rng.Shuffle(refs);
  return refs;
}

/// The captured end state of a run — everything "bit-identical" covers.
struct RunState {
  core::MatchSet matches;
  stream::StreamingStats stats;
  std::vector<data::EntityId> slots;
  std::vector<std::vector<data::EntityId>> neighborhoods;
};

RunState Capture(const StreamingMatcher& matcher) {
  RunState state;
  state.matches = matcher.matches();
  state.stats = matcher.stats();
  state.slots = matcher.incremental_cover().slots();
  state.neighborhoods.reserve(matcher.cover().size());
  for (size_t i = 0; i < matcher.cover().size(); ++i) {
    state.neighborhoods.push_back(matcher.cover().neighborhood(i).entities);
  }
  return state;
}

void ExpectSameState(const RunState& actual, const RunState& expected,
                     const std::string& label) {
  EXPECT_EQ(actual.matches, expected.matches) << label;
  EXPECT_EQ(actual.slots, expected.slots) << label;
  EXPECT_EQ(actual.neighborhoods, expected.neighborhoods) << label;
  EXPECT_TRUE(actual.stats.ingest == expected.stats.ingest) << label;
  EXPECT_TRUE(actual.stats.matching == expected.stats.matching) << label;
}

/// The uninterrupted reference: a plain StreamingMatcher fed the whole
/// arrival order in `chunk_size` chunks.
RunState ReferenceRun(const core::Matcher& matcher,
                      const std::vector<data::EntityId>& refs,
                      size_t chunk_size, const StreamingOptions& options) {
  StreamingMatcher streaming(matcher, options);
  for (size_t start = 0; start < refs.size(); start += chunk_size) {
    const size_t end = std::min(refs.size(), start + chunk_size);
    streaming.AddBatch({refs.begin() + start, refs.begin() + end});
  }
  return Capture(streaming);
}

/// Feeds `refs[from:]` into a recovered persisted matcher with the
/// original chunk boundaries (recovery always lands on one).
Status Resume(PersistentStreamingMatcher& psm,
              const std::vector<data::EntityId>& refs, size_t chunk_size) {
  size_t from = psm.num_live();
  EXPECT_TRUE(from == refs.size() || from % chunk_size == 0)
      << "recovered insert count " << from << " is not a chunk boundary";
  for (size_t start = from; start < refs.size(); start += chunk_size) {
    const size_t end = std::min(refs.size(), start + chunk_size);
    CEM_RETURN_IF_ERROR(psm.AddBatch({refs.begin() + start,
                                      refs.begin() + end}));
  }
  return OkStatus();
}

/// Runs persisted ingest with a write budget of `fail_after_bytes`; the
/// write that crosses it flushes a torn prefix and fails like a killed
/// process. Returns how many whole chunks were acknowledged.
size_t RunUntilCrash(const core::Matcher& matcher,
                     const StreamingOptions& stream_options,
                     const PersistOptions& persist_options,
                     const std::vector<data::EntityId>& refs,
                     size_t chunk_size) {
  PersistentStreamingMatcher psm(matcher, stream_options, persist_options);
  if (!psm.Start().ok()) return 0;
  size_t acknowledged = 0;
  for (size_t start = 0; start < refs.size(); start += chunk_size) {
    const size_t end = std::min(refs.size(), start + chunk_size);
    if (!psm.AddBatch({refs.begin() + start, refs.begin() + end}).ok()) {
      break;
    }
    ++acknowledged;
  }
  return acknowledged;
}

/// Total durable bytes of an uninterrupted persisted run — the budget
/// space the randomized crash points are drawn from.
uint64_t MeasureTotalBytes(const core::Matcher& matcher,
                           const StreamingOptions& stream_options,
                           PersistOptions persist_options,
                           const std::vector<data::EntityId>& refs,
                           size_t chunk_size) {
  io::FaultPlan counter;  // No budget: counts only.
  persist_options.faults = &counter;
  persist_options.dir = ScratchDir("probe");
  EXPECT_EQ(RunUntilCrash(matcher, stream_options, persist_options, refs,
                          chunk_size),
            (refs.size() + chunk_size - 1) / chunk_size);
  return counter.bytes_written.load();
}

void CrashRecoverAndCheck(const core::Matcher& matcher,
                          const StreamingOptions& stream_options,
                          const std::vector<data::EntityId>& refs,
                          size_t chunk_size, size_t snapshot_every,
                          uint64_t budget, const RunState& reference,
                          const std::string& label) {
  const std::string dir = ScratchDir(label);
  io::FaultPlan faults;
  faults.fail_after_bytes = budget;
  RunUntilCrash(matcher, stream_options, {dir, snapshot_every, &faults},
                refs, chunk_size);

  PersistentStreamingMatcher recovered(matcher, stream_options,
                                       {dir, snapshot_every, nullptr});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok()) << label;
  EXPECT_LE(info.inserts_recovered, refs.size()) << label;
  ASSERT_TRUE(Resume(recovered, refs, chunk_size).ok()) << label;
  ExpectSameState(Capture(recovered.matcher()), reference, label);
}

// --- randomized crash points ------------------------------------------------

TEST(CrashRecovery, RandomizedCrashPointsRecoverBitIdentically) {
  const auto dataset = MakeSmallBib(900);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const size_t chunk_size = 8;
  const size_t snapshot_every = 32;

  for (const uint64_t arrival_seed : {uint64_t{41}, uint64_t{42}}) {
    const std::vector<data::EntityId> refs =
        ShuffledRefs(*dataset, arrival_seed);
    const RunState reference =
        ReferenceRun(matcher, refs, chunk_size, options);
    const uint64_t total = MeasureTotalBytes(matcher, options,
                                             {"", snapshot_every, nullptr},
                                             refs, chunk_size);
    ASSERT_GT(total, 100u);

    // Edge budgets: before the WAL prefix completes, inside the header,
    // just past the header, and one byte short of a clean finish — plus
    // deterministic Rng-drawn points over the whole stream.
    std::vector<uint64_t> budgets = {0, 7, 13, 80, total - 1};
    Rng rng(arrival_seed * 977);
    for (int i = 0; i < 6; ++i) budgets.push_back(rng.NextBounded(total));
    for (size_t i = 0; i < budgets.size(); ++i) {
      CrashRecoverAndCheck(matcher, options, refs, chunk_size, snapshot_every,
                           budgets[i], reference,
                           "seed" + std::to_string(arrival_seed) + "_budget" +
                               std::to_string(budgets[i]));
    }
  }
}

TEST(CrashRecovery, ThreadAndShardMatrixRecoversToTheSameState) {
  const auto dataset = MakeSmallBib(901);
  const mln::MlnMatcher matcher(*dataset);
  const size_t chunk_size = 16;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 7);

  // Snapshots off: every durable byte is then WAL traffic, which depends
  // only on the arrival order — so the same crash budgets are comparable
  // across every execution context.
  ExecutionContext serial(1, /*num_shards=*/1);
  StreamingOptions serial_options;
  serial_options.context = &serial;
  const RunState reference =
      ReferenceRun(matcher, refs, chunk_size, serial_options);
  const uint64_t total = MeasureTotalBytes(matcher, serial_options,
                                           {"", 0, nullptr}, refs, chunk_size);

  const std::vector<uint32_t> threads = {
      1, 4, std::max(1u, std::thread::hardware_concurrency())};
  for (uint32_t num_threads : threads) {
    for (uint32_t num_shards : {1u, 4u, 32u}) {
      ExecutionContext ctx(num_threads, num_shards);
      StreamingOptions options;
      options.context = &ctx;
      for (const uint64_t budget : {total / 3, (2 * total) / 3}) {
        CrashRecoverAndCheck(matcher, options, refs, chunk_size,
                             /*snapshot_every=*/0, budget, reference,
                             std::to_string(num_threads) + "t_" +
                                 std::to_string(num_shards) + "s_" +
                                 std::to_string(budget));
      }
    }
  }
}

// --- at-rest corruption -----------------------------------------------------

class AtRestCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeSmallBib(902);
    matcher_ = std::make_unique<mln::MlnMatcher>(*dataset_);
    refs_ = ShuffledRefs(*dataset_, 17);
    reference_ = ReferenceRun(*matcher_, refs_, kChunk, options_);
    // A clean persisted run with at least two complete snapshots.
    pristine_ = ScratchDir("pristine");
    PersistentStreamingMatcher psm(*matcher_, options_,
                                   {pristine_, kEvery, nullptr});
    ASSERT_TRUE(psm.Start().ok());
    ASSERT_TRUE(Resume(psm, refs_, kChunk).ok());
    ASSERT_GE(persist::ListSnapshots(pristine_).size(), 2u);
  }

  /// Copies the pristine state dir, applies `damage`, recovers, resumes,
  /// and checks bit-identity with the uninterrupted reference.
  void CheckRecoveryAfter(const std::string& name,
                          const std::function<void(const fs::path&)>& damage,
                          size_t min_snapshots_skipped) {
    const std::string dir = ScratchDir(name);
    fs::remove_all(dir);
    fs::copy(pristine_, dir, fs::copy_options::recursive);
    damage(dir);
    PersistentStreamingMatcher recovered(*matcher_, options_,
                                         {dir, kEvery, nullptr});
    RecoveryInfo info;
    ASSERT_TRUE(recovered.Recover(&info).ok()) << name;
    EXPECT_GE(info.snapshots_skipped, min_snapshots_skipped) << name;
    ASSERT_TRUE(Resume(recovered, refs_, kChunk).ok()) << name;
    ExpectSameState(Capture(recovered.matcher()), reference_, name);
  }

  static fs::path NewestSnapshot(const fs::path& dir) {
    return persist::ListSnapshots(dir.string())[0].path;
  }

  static void FlipByte(const fs::path& path, size_t offset) {
    std::string bytes;
    ASSERT_TRUE(io::ReadFile(path.string(), &bytes).ok());
    ASSERT_LT(offset, bytes.size());
    bytes[offset] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static constexpr size_t kChunk = 8;
  static constexpr size_t kEvery = 24;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<mln::MlnMatcher> matcher_;
  StreamingOptions options_;
  std::vector<data::EntityId> refs_;
  RunState reference_;
  std::string pristine_;
};

TEST_F(AtRestCorruption, MissingShardFileSkipsTheSnapshot) {
  CheckRecoveryAfter(
      "missing_shard",
      [](const fs::path& dir) {
        fs::remove(NewestSnapshot(dir) / "sig_0.bin");
      },
      /*min_snapshots_skipped=*/1);
}

TEST_F(AtRestCorruption, TruncatedManifestSkipsTheSnapshot) {
  CheckRecoveryAfter(
      "truncated_manifest",
      [](const fs::path& dir) {
        fs::resize_file(NewestSnapshot(dir) / "MANIFEST", 10);
      },
      /*min_snapshots_skipped=*/1);
}

TEST_F(AtRestCorruption, MissingManifestSkipsTheSnapshot) {
  CheckRecoveryAfter(
      "missing_manifest",
      [](const fs::path& dir) {
        fs::remove(NewestSnapshot(dir) / "MANIFEST");
      },
      /*min_snapshots_skipped=*/1);
}

TEST_F(AtRestCorruption, FlippedSnapshotByteFailsTheChecksumAndSkips) {
  // Flip a payload byte in every section file of the newest snapshot, one
  // run each: the record CRC must catch each one.
  for (const std::string file :
       {"cover.bin", "stream.bin", "matches.bin", "sig_0.bin"}) {
    CheckRecoveryAfter(
        "flip_" + file,
        [&file](const fs::path& dir) {
          FlipByte(NewestSnapshot(dir) / file, 40);
        },
        /*min_snapshots_skipped=*/1);
  }
}

TEST_F(AtRestCorruption, FlippedWalByteDropsTheTailOnly) {
  // A flipped byte past the WAL's 12-byte prefix fails that record's
  // checksum; the valid prefix recovers and the harness re-feeds the rest.
  // (Snapshots newer than the readable WAL prefix may legitimately carry
  // the state further — recovery then replays nothing.)
  const std::string wal = (fs::path(pristine_) / "wal.log").string();
  std::string bytes;
  ASSERT_TRUE(io::ReadFile(wal, &bytes).ok());
  for (const size_t offset :
       {size_t{12}, size_t{90}, bytes.size() / 2, bytes.size() - 5}) {
    CheckRecoveryAfter(
        "flip_wal_" + std::to_string(offset),
        [offset](const fs::path& dir) { FlipByte(dir / "wal.log", offset); },
        /*min_snapshots_skipped=*/0);
  }
}

// --- WAL edge cases ---------------------------------------------------------

TEST(WalEdgeCases, EmptyWalRecoversToZeroAndStreamsOn) {
  const auto dataset = MakeSmallBib(903);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 23);
  const RunState reference = ReferenceRun(matcher, refs, 16, options);
  const std::string dir = ScratchDir("empty_wal");
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Start().ok());  // Header only, no chunks.
  }
  PersistentStreamingMatcher recovered(matcher, options, {dir, 0, nullptr});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok());
  EXPECT_EQ(info.inserts_recovered, 0u);
  EXPECT_FALSE(info.used_snapshot);
  EXPECT_EQ(info.chunks_replayed, 0u);
  EXPECT_FALSE(info.wal_tail_truncated);
  ASSERT_TRUE(Resume(recovered, refs, 16).ok());
  ExpectSameState(Capture(recovered.matcher()), reference, "empty wal");
}

TEST(WalEdgeCases, WalOnlyRecoveryReplaysEveryChunk) {
  const auto dataset = MakeSmallBib(904);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 29);
  const RunState reference = ReferenceRun(matcher, refs, 8, options);
  const std::string dir = ScratchDir("wal_only");
  const size_t fed_chunks = 5;
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Start().ok());
    for (size_t c = 0; c < fed_chunks; ++c) {
      ASSERT_TRUE(psm.AddBatch({refs.begin() + c * 8,
                                refs.begin() + (c + 1) * 8}).ok());
    }
  }
  ASSERT_TRUE(persist::ListSnapshots(dir).empty());
  PersistentStreamingMatcher recovered(matcher, options, {dir, 0, nullptr});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok());
  EXPECT_FALSE(info.used_snapshot);
  EXPECT_EQ(info.chunks_replayed, fed_chunks);
  EXPECT_EQ(info.inserts_recovered, fed_chunks * 8);
  ASSERT_TRUE(Resume(recovered, refs, 8).ok());
  ExpectSameState(Capture(recovered.matcher()), reference, "wal only");
}

TEST(WalEdgeCases, SnapshotOnlyRecoveryRebuildsTheMissingWal) {
  const auto dataset = MakeSmallBib(905);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 31);
  const RunState reference = ReferenceRun(matcher, refs, 8, options);
  const std::string dir = ScratchDir("snapshot_only");
  const size_t fed = (refs.size() / 2 / 8) * 8;
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Start().ok());
    ASSERT_TRUE(psm.AddBatch({refs.begin(), refs.begin() + fed}).ok());
    ASSERT_TRUE(psm.Checkpoint().ok());
  }
  fs::remove(fs::path(dir) / "wal.log");
  PersistentStreamingMatcher recovered(matcher, options, {dir, 0, nullptr});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok());
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_inserts, fed);
  EXPECT_EQ(info.inserts_recovered, fed);
  EXPECT_EQ(info.chunks_replayed, 0u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "wal.log"));
  // The resume continues with its own chunk boundaries past `fed`.
  ASSERT_TRUE(Resume(recovered, refs, 8).ok());
  // Reference with matching boundaries: one chunk of `fed`, then 8s.
  StreamingMatcher mirror(matcher, options);
  mirror.AddBatch({refs.begin(), refs.begin() + fed});
  for (size_t start = fed; start < refs.size(); start += 8) {
    const size_t end = std::min(refs.size(), start + 8);
    mirror.AddBatch({refs.begin() + start, refs.begin() + end});
  }
  ExpectSameState(Capture(recovered.matcher()), Capture(mirror),
                  "snapshot only");
  // Full-stream matches agree with the plain reference too (fixpoint is
  // chunking-invariant even though drain counters are not).
  EXPECT_EQ(recovered.matcher().matches(), reference.matches);
}

TEST(WalEdgeCases, CrashAfterARebuiltWalRecoveryReplaysTheLaterChunks) {
  // The regression the base-insert header field exists for: recover from
  // a snapshot with a missing WAL (the rebuilt WAL's chunks then continue
  // from the snapshot's insert count, not 0), append more acknowledged
  // chunks, crash again. The second recovery must replay those chunks —
  // with base-0 accounting it would skip them as pre-snapshot history and
  // apply the rest onto a state with a hole.
  const auto dataset = MakeSmallBib(908);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 43);
  const RunState reference = ReferenceRun(matcher, refs, 8, options);
  const std::string dir = ScratchDir("rebuilt_wal_crash");
  // Snapshot after the FIRST chunk, so the buggy skip accounting would
  // align exactly on a post-rebuild chunk boundary (the silent case).
  const size_t fed = 8;
  const size_t appended_chunks = 4;
  ASSERT_GE(refs.size(), fed + appended_chunks * 8);
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Start().ok());
    ASSERT_TRUE(psm.AddBatch({refs.begin(), refs.begin() + fed}).ok());
    ASSERT_TRUE(psm.Checkpoint().ok());
  }
  fs::remove(fs::path(dir) / "wal.log");
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    RecoveryInfo info;
    ASSERT_TRUE(psm.Recover(&info).ok());
    ASSERT_EQ(info.inserts_recovered, fed);
    for (size_t c = 0; c < appended_chunks; ++c) {
      const size_t start = fed + c * 8;
      ASSERT_TRUE(psm.AddBatch({refs.begin() + start,
                                refs.begin() + start + 8}).ok());
    }
  }  // Crash: destroyed without a checkpoint.
  PersistentStreamingMatcher recovered(matcher, options, {dir, 0, nullptr});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok());
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_inserts, fed);
  EXPECT_EQ(info.chunks_replayed, appended_chunks);
  EXPECT_EQ(info.inserts_recovered, fed + appended_chunks * 8);
  ASSERT_TRUE(Resume(recovered, refs, 8).ok());
  ExpectSameState(Capture(recovered.matcher()), reference, "rebuilt wal");
}

TEST(WalEdgeCases, LosingTheSnapshotAWalWasRebasedOnIsAnErrorNotSilence) {
  // After a rebuilt-WAL recovery, durability of everything before the
  // base rests on the snapshot the rebase came from. If that snapshot is
  // later damaged too, the acknowledged inserts in the gap exist on no
  // surviving medium — recovery must say so, not quietly resume from an
  // older (here: empty) state.
  const auto dataset = MakeSmallBib(909);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 47);
  const std::string dir = ScratchDir("lost_base_snapshot");
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Start().ok());
    ASSERT_TRUE(psm.AddBatch({refs.begin(), refs.begin() + 8}).ok());
    ASSERT_TRUE(psm.Checkpoint().ok());
  }
  fs::remove(fs::path(dir) / "wal.log");
  {
    PersistentStreamingMatcher psm(matcher, options, {dir, 0, nullptr});
    ASSERT_TRUE(psm.Recover().ok());  // Rebuilds the WAL based at 8.
  }
  const fs::path snap =
      persist::ListSnapshots(dir)[0].path;
  fs::remove(snap / "MANIFEST");  // The base snapshot dies at rest.
  PersistentStreamingMatcher doomed(matcher, options, {dir, 0, nullptr});
  const Status status = doomed.Recover();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("acknowledged inserts were lost"),
            std::string::npos);
}

TEST(WalEdgeCases, FsyncedRunRecoversBitIdentically) {
  // PersistOptions::fsync changes the flush path (fsync per append,
  // per-file + directory sync per snapshot), not the bytes — recovery
  // must behave identically with it on.
  const auto dataset = MakeSmallBib(910);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 53);
  const RunState reference = ReferenceRun(matcher, refs, 16, options);
  const std::string dir = ScratchDir("fsync");
  const size_t fed = (refs.size() / 2 / 16) * 16;
  {
    PersistentStreamingMatcher psm(matcher, options,
                                   {dir, 32, nullptr, /*fsync=*/true});
    ASSERT_TRUE(psm.Start().ok());
    ASSERT_TRUE(psm.AddBatch({refs.begin(), refs.begin() + fed}).ok());
  }
  PersistentStreamingMatcher recovered(matcher, options,
                                       {dir, 32, nullptr, /*fsync=*/true});
  RecoveryInfo info;
  ASSERT_TRUE(recovered.Recover(&info).ok());
  EXPECT_EQ(info.inserts_recovered, fed);
  ASSERT_TRUE(Resume(recovered, refs, 16).ok());
  // Boundaries: one chunk of `fed`, then 16s — mirror them exactly.
  StreamingMatcher mirror(matcher, options);
  mirror.AddBatch({refs.begin(), refs.begin() + fed});
  for (size_t start = fed; start < refs.size(); start += 16) {
    const size_t end = std::min(refs.size(), start + 16);
    mirror.AddBatch({refs.begin() + start, refs.begin() + end});
  }
  ExpectSameState(Capture(recovered.matcher()), Capture(mirror), "fsync");
  EXPECT_EQ(recovered.matcher().matches(), reference.matches);
}

TEST(WalEdgeCases, DoubleRecoveryIsIdempotent) {
  const auto dataset = MakeSmallBib(906);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 37);
  const RunState reference = ReferenceRun(matcher, refs, 8, options);
  const std::string dir = ScratchDir("double_recovery");
  io::FaultPlan faults;
  faults.fail_after_bytes = 2000;  // Mid-stream torn write.
  RunUntilCrash(matcher, options, {dir, 24, &faults}, refs, 8);

  RunState first_state;
  RecoveryInfo first_info;
  {
    PersistentStreamingMatcher first(matcher, options, {dir, 24, nullptr});
    ASSERT_TRUE(first.Recover(&first_info).ok());
    first_state = Capture(first.matcher());
  }  // Destroyed without further appends.
  PersistentStreamingMatcher second(matcher, options, {dir, 24, nullptr});
  RecoveryInfo second_info;
  ASSERT_TRUE(second.Recover(&second_info).ok());
  EXPECT_EQ(second_info.inserts_recovered, first_info.inserts_recovered);
  // The first recovery already truncated any torn tail.
  EXPECT_FALSE(second_info.wal_tail_truncated);
  ExpectSameState(Capture(second.matcher()), first_state, "second recovery");
  ASSERT_TRUE(Resume(second, refs, 8).ok());
  ExpectSameState(Capture(second.matcher()), reference, "after resume");
}

TEST(WalEdgeCases, StartRefusesExistingStateAndRecoverNeedsSome) {
  const auto dataset = MakeSmallBib(907);
  const mln::MlnMatcher matcher(*dataset);
  const StreamingOptions options;
  const std::string dir = ScratchDir("guards");

  PersistentStreamingMatcher empty(matcher, options, {dir, 0, nullptr});
  const Status nothing = empty.Recover();
  EXPECT_EQ(nothing.code(), StatusCode::kNotFound);
  ASSERT_TRUE(empty.Start().ok());

  PersistentStreamingMatcher second(matcher, options, {dir, 0, nullptr});
  const Status refused = second.Start();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(second.Recover().ok());
}

}  // namespace
}  // namespace cem
