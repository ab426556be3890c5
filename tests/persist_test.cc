// Persistence unit suite: the framed-IO primitives, the serialization
// accessors (pinned against observable streaming behavior), snapshot
// round-trips (semantic equality AND save->load->save byte identity),
// derived state recounted on recovery, token-index persistence, WAL
// framing, and the committed golden fixtures: v2 locks the on-disk format
// across hosts, and v1 must keep loading.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover.h"
#include "data/bib_generator.h"
#include "data/figure1.h"
#include "mln/mln_matcher.h"
#include "persist/format.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "stream/streaming_matcher.h"
#include "test_util.h"
#include "text/token_index.h"
#include "util/execution_context.h"
#include "util/io.h"
#include "util/random.h"

namespace cem {
namespace {

namespace fs = std::filesystem;

using stream::StreamingMatcher;
using stream::StreamingOptions;

/// Fresh scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("persist_" + name);
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

void FeedChunks(StreamingMatcher& matcher,
                const std::vector<data::EntityId>& refs, size_t chunk_size) {
  for (size_t start = 0; start < refs.size(); start += chunk_size) {
    const size_t end = std::min(refs.size(), start + chunk_size);
    matcher.AddBatch({refs.begin() + start, refs.begin() + end});
  }
}

std::vector<std::vector<data::EntityId>> CoverNeighborhoods(
    const StreamingMatcher& matcher) {
  std::vector<std::vector<data::EntityId>> neighborhoods;
  neighborhoods.reserve(matcher.cover().size());
  for (size_t i = 0; i < matcher.cover().size(); ++i) {
    neighborhoods.push_back(matcher.cover().neighborhood(i).entities);
  }
  return neighborhoods;
}

/// Full state equality of two streaming matchers, field by field (matches,
/// cover, arrival order, seeds, counters) — the "bit-identical" assertion
/// the round-trip and crash tests share.
void ExpectSameState(const StreamingMatcher& a, const StreamingMatcher& b,
                     const std::string& label) {
  EXPECT_EQ(a.matches(), b.matches()) << label;
  EXPECT_EQ(CoverNeighborhoods(a), CoverNeighborhoods(b)) << label;
  EXPECT_EQ(a.incremental_cover().slots(), b.incremental_cover().slots())
      << label;
  EXPECT_EQ(a.incremental_cover().seed_neighborhoods(),
            b.incremental_cover().seed_neighborhoods())
      << label;
  EXPECT_EQ(a.incremental_cover().signatures(),
            b.incremental_cover().signatures())
      << label;
  EXPECT_TRUE(a.stats() == b.stats()) << label;
  EXPECT_EQ(a.incremental_cover().core_membership().SortedEntries(),
            b.incremental_cover().core_membership().SortedEntries())
      << label;
  // A restored cover records each entity's lowest home first, so of the
  // cover's membership only the homes are state.
  const core::CoverMembership& homes_a = a.cover().membership();
  const core::CoverMembership& homes_b = b.cover().membership();
  EXPECT_EQ(homes_a.num_entities(), homes_b.num_entities()) << label;
  size_t differing_rows = 0;
  for (data::EntityId e = 0; e < a.dataset().num_entities(); ++e) {
    if (homes_a.HomesOf(e) != homes_b.HomesOf(e)) ++differing_rows;
  }
  EXPECT_EQ(differing_rows, 0u) << label;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(io::ReadFile(path, &bytes).ok()) << path;
  return bytes;
}

/// Rewrites the framed file at `path` at format `version`, payload intact.
void ReframeAt(const std::string& path, std::string_view magic,
               uint32_t version) {
  const Result<std::string> payload =
      io::ReadFramedFile(path, magic, persist::kSnapshotVersion);
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_TRUE(io::WriteFramedFile(path, magic, version, *payload).ok());
}

// --- io primitives ----------------------------------------------------------

TEST(IoPrimitives, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check: crc("123456789") == 0xCBF43926.
  EXPECT_EQ(io::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::Crc32(""), 0u);
}

TEST(IoPrimitives, BufferCursorRoundTripAndPoisoning) {
  io::Buffer buffer;
  buffer.PutU8(7);
  buffer.PutU32(0xdeadbeefu);
  buffer.PutU64(0x0123456789abcdefULL);
  buffer.PutDouble(0.1);
  buffer.PutString("tokens");
  io::Cursor cursor(buffer.bytes());
  EXPECT_EQ(cursor.GetU8(), 7u);
  EXPECT_EQ(cursor.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(cursor.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(cursor.GetDouble(), 0.1);
  EXPECT_EQ(cursor.GetString(), "tokens");
  EXPECT_TRUE(cursor.AtEnd());
  // Reading past the end poisons the cursor instead of crashing.
  EXPECT_EQ(cursor.GetU64(), 0u);
  EXPECT_FALSE(cursor.ok());
  EXPECT_FALSE(cursor.AtEnd());
}

TEST(IoPrimitives, LittleEndianBytesAreHostIndependent) {
  io::Buffer buffer;
  buffer.PutU32(0x04030201u);
  const std::string& bytes = buffer.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  EXPECT_EQ(bytes[2], 3);
  EXPECT_EQ(bytes[3], 4);
}

TEST(IoPrimitives, FramedRecordsDetectTornAndCorruptTails) {
  const std::string dir = ScratchDir("framing");
  const std::string path = dir + "/records.bin";
  {
    io::FileWriter writer(path);
    ASSERT_TRUE(io::WriteRecord(writer, "first").ok());
    ASSERT_TRUE(io::WriteRecord(writer, "second record").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string bytes = ReadAll(path);
  size_t pos = 0;
  std::string_view payload;
  EXPECT_EQ(io::ReadRecord(bytes, &pos, &payload), io::RecordVerdict::kRecord);
  EXPECT_EQ(payload, "first");
  EXPECT_EQ(io::ReadRecord(bytes, &pos, &payload), io::RecordVerdict::kRecord);
  EXPECT_EQ(payload, "second record");
  EXPECT_EQ(io::ReadRecord(bytes, &pos, &payload),
            io::RecordVerdict::kEndOfStream);

  // A truncated tail parses as torn, not as a short record.
  std::string torn = bytes.substr(0, bytes.size() - 3);
  pos = 0;
  EXPECT_EQ(io::ReadRecord(torn, &pos, &payload), io::RecordVerdict::kRecord);
  EXPECT_EQ(io::ReadRecord(torn, &pos, &payload), io::RecordVerdict::kTorn);

  // A flipped payload byte fails the checksum.
  std::string corrupt = bytes;
  corrupt[bytes.size() - 2] ^= 0x01;
  pos = 0;
  EXPECT_EQ(io::ReadRecord(corrupt, &pos, &payload),
            io::RecordVerdict::kRecord);
  EXPECT_EQ(io::ReadRecord(corrupt, &pos, &payload), io::RecordVerdict::kTorn);
}

TEST(IoPrimitives, FaultPlanCutsTheWriteStreamAtTheBudget) {
  const std::string dir = ScratchDir("faults");
  const std::string path = dir + "/torn.bin";
  io::FaultPlan faults;
  faults.fail_after_bytes = 10;
  io::FileWriter writer(path, &faults);
  ASSERT_TRUE(writer.Write("01234567").ok());  // 8 bytes, within budget.
  const Status crash = writer.Write("89abcdef");
  EXPECT_FALSE(crash.ok());
  EXPECT_NE(crash.message().find("simulated crash"), std::string::npos);
  // Further writes keep failing; the file holds exactly the budget.
  EXPECT_FALSE(writer.Write("x").ok());
  writer.Close();
  EXPECT_EQ(ReadAll(path), "0123456789");
}

TEST(IoPrimitives, FramedFileRejectsBadMagicAndNewVersions) {
  const std::string dir = ScratchDir("framed");
  const std::string good = dir + "/good.bin";
  ASSERT_TRUE(io::WriteFramedFile(good, "CEMTEST1", 1, "payload").ok());
  Result<std::string> ok = io::ReadFramedFile(good, "CEMTEST1", 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "payload");

  Result<std::string> wrong_magic = io::ReadFramedFile(good, "CEMTEST2", 1);
  EXPECT_FALSE(wrong_magic.ok());
  EXPECT_NE(wrong_magic.status().message().find("bad magic"),
            std::string::npos);

  const std::string newer = dir + "/newer.bin";
  ASSERT_TRUE(io::WriteFramedFile(newer, "CEMTEST1", 2, "payload").ok());
  Result<std::string> unsupported = io::ReadFramedFile(newer, "CEMTEST1", 1);
  EXPECT_FALSE(unsupported.ok());
  EXPECT_NE(unsupported.status().message().find("unsupported version"),
            std::string::npos);
}

TEST(IoPrimitives, SyncPersistsBytesAndDirectoryEntries) {
  const std::string dir = ScratchDir("sync");
  const std::string path = dir + "/synced.bin";
  io::FileWriter writer(path);
  ASSERT_TRUE(writer.Write("payload").ok());
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(ReadAll(path), "payload");
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_TRUE(io::SyncDir(dir).ok());
  EXPECT_FALSE(io::SyncDir(dir + "/nonexistent").ok());
}

TEST(IoPrimitivesDeathTest, AccessingABadLoadResultDies) {
  const std::string dir = ScratchDir("death");
  Result<std::string> missing = io::ReadFramedFile(dir + "/absent.bin",
                                                   "CEMTEST1", 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_DEATH({ (void)missing.value(); }, "");
}

// --- serialization accessors (pinned against observable behavior) -----------

TEST(SerializationAccessors, EnumerateExactlyTheObservableStreamState) {
  const data::Figure1 fig = data::MakeFigure1();
  const mln::MlnMatcher matcher(*fig.dataset, mln::MlnWeights::Figure1Demo());
  StreamingMatcher streaming(matcher);
  const std::vector<data::EntityId> refs =
      ShuffledRefs(*fig.dataset, /*seed=*/3);
  for (data::EntityId ref : refs) streaming.Add(ref);
  const stream::IncrementalCover& cover = streaming.incremental_cover();

  // slots() is the arrival order and matches is_live/num_live.
  ASSERT_EQ(cover.slots().size(), streaming.num_live());
  EXPECT_EQ(cover.slots(), refs);
  for (data::EntityId ref : cover.slots()) {
    EXPECT_TRUE(streaming.is_live(ref));
  }

  // signatures() holds exactly ComputeSignature of each slot's reference.
  ASSERT_EQ(cover.signatures().size(), refs.size());
  for (size_t slot = 0; slot < refs.size(); ++slot) {
    EXPECT_EQ(cover.signatures()[slot], cover.ComputeSignature(refs[slot]))
        << "slot " << slot;
  }

  // Every seed id names a neighborhood containing its reference as a core
  // member; non-seed slots were absorbed by a tight match.
  ASSERT_EQ(cover.seed_neighborhoods().size(), refs.size());
  size_t seeds = 0;
  for (size_t slot = 0; slot < refs.size(); ++slot) {
    const uint32_t seed = cover.seed_neighborhoods()[slot];
    if (seed == stream::IncrementalCover::kNoSeed) continue;
    ++seeds;
    ASSERT_LT(seed, cover.cover().size());
    const std::vector<data::EntityId>& members =
        cover.cover().neighborhood(seed).entities;
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                   refs[slot]));
  }
  EXPECT_EQ(seeds, cover.stats().seeds_created);

  // The cover's membership mirrors its neighborhoods exactly.
  const core::CoverMembership& full = cover.cover().membership();
  size_t cover_memberships = 0;
  for (size_t i = 0; i < cover.cover().size(); ++i) {
    cover_memberships += cover.cover().neighborhood(i).entities.size();
  }
  size_t entry_memberships = 0;
  for (const core::MembershipEntry& e : full.SortedEntries()) {
    entry_memberships += e.homes.size();
    for (uint32_t n : e.homes) {
      const std::vector<data::EntityId>& members =
          cover.cover().neighborhood(n).entities;
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(),
                                     e.entity));
    }
  }
  EXPECT_EQ(entry_memberships, cover_memberships);

  // core_membership() is a sub-membership of the full one.
  for (const core::MembershipEntry& e :
       cover.core_membership().SortedEntries()) {
    const std::vector<uint32_t>& full_homes = full.HomesOf(e.entity);
    for (uint32_t n : e.homes) {
      EXPECT_TRUE(std::binary_search(full_homes.begin(), full_homes.end(), n));
    }
  }
}

TEST(SerializationAccessors, CoverMembershipEntriesRoundTrip) {
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  StreamingMatcher streaming(matcher);
  FeedChunks(streaming, ShuffledRefs(*dataset, 5), 16);
  const core::CoverMembership& original =
      streaming.incremental_cover().core_membership();
  const std::vector<core::MembershipEntry> entries = original.SortedEntries();
  ASSERT_FALSE(entries.empty());
  const core::CoverMembership rebuilt =
      core::CoverMembership::FromEntries(entries);
  EXPECT_EQ(rebuilt.num_entities(), original.num_entities());
  EXPECT_EQ(rebuilt.SortedEntries(), entries);
  for (const core::MembershipEntry& e : entries) {
    EXPECT_TRUE(rebuilt.Contains(e.entity));
    EXPECT_EQ(rebuilt.HomesOf(e.entity), original.HomesOf(e.entity));
    EXPECT_EQ(rebuilt.FirstHome(e.entity), original.FirstHome(e.entity));
  }
}

// --- snapshot round-trips ---------------------------------------------------

TEST(SnapshotRoundTrip, LoadRestoresTheExactStateAndFutureIngest) {
  const auto dataset = MakeSmallBib(802);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 11);
  const size_t half = (refs.size() / 2 / 16) * 16;  // A chunk boundary.
  const std::string dir = ScratchDir("roundtrip");

  StreamingMatcher original(matcher);
  FeedChunks(original, {refs.begin(), refs.begin() + half}, 16);
  ASSERT_TRUE(persist::SaveSnapshot(dir, original).ok());

  const std::vector<persist::SnapshotRef> snapshots =
      persist::ListSnapshots(dir);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].inserts, half);

  StreamingMatcher loaded(matcher);
  ASSERT_TRUE(persist::LoadSnapshot(snapshots[0].path, loaded).ok());
  ExpectSameState(loaded, original, "after load");

  // The restored matcher continues bit-identically.
  StreamingMatcher uninterrupted(matcher);
  FeedChunks(uninterrupted, refs, 16);
  FeedChunks(loaded, {refs.begin() + half, refs.end()}, 16);
  ExpectSameState(loaded, uninterrupted, "after resume");
}

TEST(SnapshotRoundTrip, SaveLoadSaveIsByteIdentical) {
  const auto dataset = MakeSmallBib(803);
  const mln::MlnMatcher matcher(*dataset);
  ExecutionContext ctx(2, /*num_shards=*/4);
  StreamingOptions options;
  options.context = &ctx;
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 12);

  StreamingMatcher original(matcher, options);
  FeedChunks(original, refs, 32);
  const std::string first_dir = ScratchDir("bytes_first");
  ASSERT_TRUE(persist::SaveSnapshot(first_dir, original).ok());
  const std::string snap = persist::ListSnapshots(first_dir)[0].path;

  StreamingMatcher loaded(matcher, options);
  ASSERT_TRUE(persist::LoadSnapshot(snap, loaded).ok());
  const std::string second_dir = ScratchDir("bytes_second");
  ASSERT_TRUE(persist::SaveSnapshot(second_dir, loaded).ok());
  const std::string resnap = persist::ListSnapshots(second_dir)[0].path;

  size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(snap)) {
    const std::string name = entry.path().filename().string();
    ++files;
    EXPECT_EQ(ReadAll((fs::path(resnap) / name).string()),
              ReadAll(entry.path().string()))
        << name;
  }
  // MANIFEST + stream + matches + cover + 4 signature shards.
  EXPECT_EQ(files, 8u);
}

TEST(SnapshotRoundTrip, ShardCountChangeFallsBackToRebuild) {
  const auto dataset = MakeSmallBib(804);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 13);
  const size_t half = (refs.size() / 2 / 8) * 8;

  ExecutionContext save_ctx(2, /*num_shards=*/4);
  StreamingOptions save_options;
  save_options.context = &save_ctx;
  StreamingMatcher original(matcher, save_options);
  FeedChunks(original, {refs.begin(), refs.begin() + half}, 8);
  const std::string dir = ScratchDir("shard_change");
  ASSERT_TRUE(persist::SaveSnapshot(dir, original).ok());
  const std::string snap = persist::ListSnapshots(dir)[0].path;

  for (const uint32_t shards : {1u, 32u}) {
    ExecutionContext load_ctx(4, shards);
    StreamingOptions load_options;
    load_options.context = &load_ctx;
    StreamingMatcher loaded(matcher, load_options);
    ASSERT_TRUE(persist::LoadSnapshot(snap, loaded).ok()) << shards;

    StreamingMatcher uninterrupted(matcher, load_options);
    FeedChunks(uninterrupted, refs, 8);
    FeedChunks(loaded, {refs.begin() + half, refs.end()}, 8);
    ExpectSameState(loaded, uninterrupted,
                    "resume with " + std::to_string(shards) + " shards");
  }
}

TEST(SnapshotRoundTrip, RejectsForeignFingerprints) {
  const auto dataset = MakeSmallBib(805);
  const mln::MlnMatcher matcher(*dataset);
  StreamingMatcher original(matcher);
  FeedChunks(original, ShuffledRefs(*dataset, 14), 16);
  const std::string dir = ScratchDir("fingerprint");
  ASSERT_TRUE(persist::SaveSnapshot(dir, original).ok());
  const std::string snap = persist::ListSnapshots(dir)[0].path;

  // Same dataset, different thresholds: the fingerprint must refuse.
  StreamingOptions other_options;
  other_options.cover.loose = 0.25;
  StreamingMatcher other(matcher, other_options);
  const Status status = persist::LoadSnapshot(snap, other);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint mismatch"), std::string::npos);
}

TEST(SnapshotRobustness, ImplausibleInsertCountIsRejectedNotAllocated) {
  // A CRC-valid snapshot whose counts claim far more state than its bytes
  // could encode must fail the parse (and be skippable by recovery), not
  // die in a 2^60-element reserve.
  const auto dataset = MakeSmallBib(810);
  const mln::MlnMatcher matcher(*dataset);
  StreamingMatcher victim(matcher);
  const persist::StateFingerprint fingerprint =
      persist::StateFingerprint::Of(*dataset, {});
  const std::string dir = ScratchDir("huge_counts");
  const std::string snap = dir + "/" + persist::SnapshotDirName(8);
  fs::create_directories(snap);
  const uint64_t huge = uint64_t{1} << 60;
  {
    io::Buffer out;
    out.PutU8(static_cast<uint8_t>(persist::Section::kManifest));
    fingerprint.AppendTo(out);
    out.PutU64(huge);  // inserts
    out.PutU32(1);     // shards
    out.PutU64(0);     // neighborhoods
    out.PutU64(0);     // matches
    out.PutU64(0);     // core entries
    ASSERT_TRUE(io::WriteFramedFile(snap + "/MANIFEST",
                                    persist::kSnapshotMagic,
                                    persist::kSnapshotVersion,
                                    out.bytes()).ok());
  }
  {
    io::Buffer out;
    out.PutU8(static_cast<uint8_t>(persist::Section::kStream));
    out.PutU64(huge);  // Agrees with the MANIFEST, disagrees with reality.
    ASSERT_TRUE(io::WriteFramedFile(snap + "/stream.bin",
                                    persist::kSnapshotMagic,
                                    persist::kSnapshotVersion,
                                    out.bytes()).ok());
  }
  const Status status = persist::LoadSnapshot(snap, victim);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("implausible insert count"),
            std::string::npos);
}

/// The image SaveSnapshot writes of a DBLP-like stream with half its
/// references ingested, captured through the serialization accessors.
stream::StreamingMatcherState HalfStreamedState(
    const mln::MlnMatcher& matcher) {
  const std::vector<data::EntityId> refs =
      ShuffledRefs(matcher.dataset(), 801);
  StreamingMatcher streaming(matcher);
  FeedChunks(streaming, {refs.begin(), refs.begin() + refs.size() / 2}, 16);
  const stream::IncrementalCover& cover = streaming.incremental_cover();
  stream::StreamingMatcherState state;
  state.cover.slots = cover.slots();
  state.cover.signatures = cover.signatures();
  state.cover.seed_neighborhoods = cover.seed_neighborhoods();
  state.cover.neighborhoods = CoverNeighborhoods(streaming);
  state.cover.core_entries = cover.core_membership().SortedEntries();
  state.cover.stats = cover.stats();
  state.match_keys.assign(streaming.matches().keys().begin(),
                          streaming.matches().keys().end());
  std::sort(state.match_keys.begin(), state.match_keys.end());
  state.matching = streaming.stats().matching;
  return state;
}

Status RestoreInto(const mln::MlnMatcher& matcher,
                   stream::StreamingMatcherState state) {
  StreamingMatcher fresh(matcher);
  return fresh.RestoreState(std::move(state));
}

// A restored image that names an id outside the dataset or the cover must
// be refused, not installed: the next ingest would index with it.
constexpr data::EntityId kHugeId = 0xfffffff0u;

TEST(SnapshotRobustness, OutOfRangeNeighborhoodMemberIsRejected) {
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  stream::StreamingMatcherState state = HalfStreamedState(matcher);
  ASSERT_TRUE(RestoreInto(matcher, state).ok());
  state.cover.neighborhoods.front().back() = kHugeId;  // Still sorted.
  EXPECT_EQ(RestoreInto(matcher, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustness, OutOfRangeMembershipEntityIsRejected) {
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  stream::StreamingMatcherState state = HalfStreamedState(matcher);
  ASSERT_TRUE(RestoreInto(matcher, state).ok());
  state.cover.core_entries.back().entity = kHugeId;  // Still ascending.
  EXPECT_EQ(RestoreInto(matcher, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustness, MembershipHomePastTheCoverIsRejected) {
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  stream::StreamingMatcherState state = HalfStreamedState(matcher);
  ASSERT_TRUE(RestoreInto(matcher, state).ok());
  core::MembershipEntry& row = state.cover.core_entries.back();
  const auto past = static_cast<uint32_t>(state.cover.neighborhoods.size());
  if (row.first_home == row.homes.back()) row.first_home = past;
  row.homes.back() = past;  // Still sorted.
  EXPECT_EQ(RestoreInto(matcher, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustness, CoreRowNamingANeighborhoodWithoutItsEntityIsRejected) {
  // Core rows are the one membership a snapshot keeps; each home they
  // name must hold the entity, or the restored pair repairs would target
  // a neighborhood the cover never put the entity in.
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  stream::StreamingMatcherState state = HalfStreamedState(matcher);
  ASSERT_TRUE(RestoreInto(matcher, state).ok());
  core::MembershipEntry& row = state.cover.core_entries.front();
  uint32_t stranger = 0;
  while (stranger < state.cover.neighborhoods.size() &&
         std::binary_search(state.cover.neighborhoods[stranger].begin(),
                            state.cover.neighborhoods[stranger].end(),
                            row.entity)) {
    ++stranger;
  }
  ASSERT_LT(stranger, state.cover.neighborhoods.size());
  row.homes.insert(
      std::lower_bound(row.homes.begin(), row.homes.end(), stranger),
      stranger);  // Still sorted and unique; first_home unchanged.
  EXPECT_EQ(RestoreInto(matcher, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotRobustness, OutOfRangeMatchKeyIsRejected) {
  const auto dataset = MakeSmallBib(801);
  const mln::MlnMatcher matcher(*dataset);
  stream::StreamingMatcherState state = HalfStreamedState(matcher);
  ASSERT_TRUE(RestoreInto(matcher, state).ok());
  state.match_keys.push_back(data::PairKey(data::EntityPair(0, kHugeId)));
  EXPECT_EQ(RestoreInto(matcher, std::move(state)).code(),
            StatusCode::kInvalidArgument);
}

// --- derived state ----------------------------------------------------------

TEST(DerivedState, InsidePairCountsAreExactAfterRecoverAndStreamingOn) {
  // Snapshots do not carry the cover's inside-pair counts; RestoreState
  // recounts them from the restored cover. They must equal a brute-force
  // count right after Recover(), with and without a WAL tail replayed on
  // top of the snapshot, and after every chunk streamed on from there.
  const auto dataset = MakeSmallBib(811);
  const mln::MlnMatcher matcher(*dataset);
  const std::vector<data::EntityId> refs = ShuffledRefs(*dataset, 19);
  constexpr size_t kChunk = 8;
  constexpr size_t kSnapshotEvery = 24;
  const size_t snapshot_point =
      (refs.size() / 2 / kSnapshotEvery) * kSnapshotEvery;
  ASSERT_GT(snapshot_point, 0u);
  for (const size_t tail_chunks : {size_t{0}, size_t{2}}) {
    const std::string label = std::to_string(tail_chunks) + " tail chunks";
    const std::string dir =
        ScratchDir("inside_pairs_" + std::to_string(tail_chunks));
    const size_t crash_point = snapshot_point + tail_chunks * kChunk;
    {
      persist::PersistentStreamingMatcher psm(matcher, {},
                                              {dir, kSnapshotEvery, nullptr});
      ASSERT_TRUE(psm.Start().ok());
      for (size_t start = 0; start < crash_point; start += kChunk) {
        ASSERT_TRUE(
            psm.AddBatch({refs.begin() + start, refs.begin() + start + kChunk})
                .ok());
      }
    }
    persist::PersistentStreamingMatcher recovered(
        matcher, {}, {dir, kSnapshotEvery, nullptr});
    persist::RecoveryInfo info;
    ASSERT_TRUE(recovered.Recover(&info).ok()) << label;
    ASSERT_TRUE(info.used_snapshot) << label;
    EXPECT_EQ(info.snapshot_inserts, snapshot_point) << label;
    EXPECT_EQ(info.chunks_replayed, tail_chunks) << label;
    EXPECT_EQ(testing_util::InsidePairMismatches(
                  recovered.matcher().incremental_cover(), *dataset),
              std::vector<uint32_t>{})
        << label << ", after Recover()";
    for (size_t start = recovered.num_live(); start < refs.size();
         start += kChunk) {
      const size_t end = std::min(refs.size(), start + kChunk);
      ASSERT_TRUE(
          recovered.AddBatch({refs.begin() + start, refs.begin() + end}).ok());
      ASSERT_EQ(testing_util::InsidePairMismatches(
                    recovered.matcher().incremental_cover(), *dataset),
                std::vector<uint32_t>{})
          << label << ", after " << end << " inserts";
    }
  }
}

// --- token index ------------------------------------------------------------

TEST(TokenIndexPersistence, RoundTripsAcrossShardCounts) {
  std::vector<std::vector<std::string>> docs = {
      {"Alice", "Smith", "graph"},
      {"alice", "smith", "graphs"},
      {"Bob", "Jones"},
      {"carol", "smith", "entity", "matching"},
      {},
      {"entity", "matching", "survey"},
  };
  ExecutionContext ctx(2, /*num_shards=*/3);
  text::TokenIndex original(3);
  original.AddDocuments(docs, ctx);
  const std::string dir = ScratchDir("token_index");
  ASSERT_TRUE(persist::SaveTokenIndex(dir, original, ctx).ok());

  for (const uint32_t shards : {1u, 3u, 8u}) {
    text::TokenIndex loaded(shards);
    ASSERT_TRUE(persist::LoadTokenIndex(dir, loaded, ctx).ok()) << shards;
    EXPECT_EQ(loaded.num_documents(), original.num_documents());
    EXPECT_EQ(loaded.num_tokens(), original.num_tokens());
    EXPECT_EQ(loaded.num_postings(), original.num_postings());
    for (uint32_t doc = 0; doc < original.num_documents(); ++doc) {
      const auto expected_tokens = original.doc_tokens(doc);
      const auto actual_tokens = loaded.doc_tokens(doc);
      ASSERT_EQ(actual_tokens.size(), expected_tokens.size()) << "doc " << doc;
      for (size_t t = 0; t < expected_tokens.size(); ++t) {
        EXPECT_EQ(actual_tokens[t].view(), expected_tokens[t].view());
        EXPECT_EQ(actual_tokens[t].hash, expected_tokens[t].hash);
      }
    }
    for (uint32_t doc = 0; doc < original.num_documents(); ++doc) {
      size_t scored_original = 0;
      size_t scored_loaded = 0;
      const auto expected = original.Candidates(doc, 0.2, &scored_original);
      const auto actual = loaded.Candidates(doc, 0.2, &scored_loaded);
      ASSERT_EQ(actual.size(), expected.size()) << "doc " << doc;
      EXPECT_EQ(scored_loaded, scored_original);
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].doc_id, expected[i].doc_id);
        EXPECT_DOUBLE_EQ(actual[i].score, expected[i].score);
      }
    }
    // A non-empty index refuses to load over itself.
    EXPECT_FALSE(persist::LoadTokenIndex(dir, loaded, ctx).ok());
  }
}

TEST(TokenIndexPersistence, VersionOneFilesStillLoad) {
  // Token-index files share kSnapshotVersion, but v2 left their layout
  // unchanged: files framed as v1 load the same index.
  const std::vector<std::vector<std::string>> docs = {
      {"alice", "smith"}, {"alice", "smyth"}, {"bob"}};
  ExecutionContext ctx(1, /*num_shards=*/2);
  text::TokenIndex original(2);
  original.AddDocuments(docs, ctx);
  const std::string dir = ScratchDir("token_index_v1");
  ASSERT_TRUE(persist::SaveTokenIndex(dir, original, ctx).ok());
  for (const std::string name : {"toki_meta.bin", "toki_0.bin", "toki_1.bin"}) {
    ReframeAt(dir + "/" + name, persist::kTokenIndexMagic, 1);
  }
  text::TokenIndex loaded(2);
  ASSERT_TRUE(persist::LoadTokenIndex(dir, loaded, ctx).ok());
  EXPECT_EQ(loaded.num_documents(), original.num_documents());
  EXPECT_EQ(loaded.num_postings(), original.num_postings());
}

// --- WAL --------------------------------------------------------------------

TEST(Wal, AppendsAndReadsChunksBehindAFingerprint) {
  const auto dataset = MakeSmallBib(806);
  stream::IncrementalCoverOptions cover_options;
  const persist::StateFingerprint fingerprint =
      persist::StateFingerprint::Of(*dataset, cover_options);
  const std::string dir = ScratchDir("wal");
  const std::string path = dir + "/wal.log";

  persist::WalWriter writer(path);
  ASSERT_TRUE(writer.Create(fingerprint).ok());
  ASSERT_TRUE(writer.AppendChunk({1, 2, 3}).ok());
  ASSERT_TRUE(writer.AppendChunk({9}).ok());
  EXPECT_FALSE(writer.AppendChunk({}).ok());  // Empty chunks are a bug.

  Result<persist::WalContents> contents =
      persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->header_valid);
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->num_inserts, 4u);
  ASSERT_EQ(contents->chunks.size(), 2u);
  EXPECT_EQ(contents->chunks[0], (std::vector<data::EntityId>{1, 2, 3}));
  EXPECT_EQ(contents->chunks[1], (std::vector<data::EntityId>{9}));

  // Reopen for append: existing records survive, new ones follow.
  persist::WalWriter append(path);
  ASSERT_TRUE(append.OpenForAppend().ok());
  ASSERT_TRUE(append.AppendChunk({4, 5}).ok());
  contents = persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->num_inserts, 6u);

  // A fingerprint from different options refuses the file.
  stream::IncrementalCoverOptions other = cover_options;
  other.tight = 0.7;
  const Result<persist::WalContents> mismatch = persist::ReadWal(
      path, persist::StateFingerprint::Of(*dataset, other));
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("fingerprint mismatch"),
            std::string::npos);

  // Missing file reads as empty (nothing was ever applied).
  const Result<persist::WalContents> missing =
      persist::ReadWal(dir + "/absent.log", fingerprint);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->header_valid);
  EXPECT_EQ(missing->num_inserts, 0u);
}

TEST(Wal, HeaderRecordsTheBaseInsertCount) {
  const auto dataset = MakeSmallBib(808);
  const persist::StateFingerprint fingerprint =
      persist::StateFingerprint::Of(*dataset, {});
  const std::string dir = ScratchDir("wal_base");
  const std::string path = dir + "/wal.log";

  // A fresh WAL starts at insert 0.
  {
    persist::WalWriter writer(path);
    ASSERT_TRUE(writer.Create(fingerprint).ok());
  }
  Result<persist::WalContents> contents = persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->base_inserts, 0u);

  // A WAL rebuilt next to a surviving snapshot records where its chunks
  // continue from; chunk records count from there, not from 0.
  {
    persist::WalWriter writer(path);
    ASSERT_TRUE(writer.Create(fingerprint, /*base_inserts=*/57).ok());
    ASSERT_TRUE(writer.AppendChunk({1, 2}).ok());
  }
  contents = persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->header_valid);
  EXPECT_EQ(contents->base_inserts, 57u);
  EXPECT_EQ(contents->num_inserts, 2u);
}

TEST(Wal, HugeChunkCountFailsTheParseInsteadOfAllocating) {
  const auto dataset = MakeSmallBib(809);
  const persist::StateFingerprint fingerprint =
      persist::StateFingerprint::Of(*dataset, {});
  const std::string dir = ScratchDir("wal_huge");
  const std::string path = dir + "/wal.log";
  {
    persist::WalWriter writer(path);
    ASSERT_TRUE(writer.Create(fingerprint).ok());
    ASSERT_TRUE(writer.AppendChunk({1, 2, 3}).ok());
  }
  // Append a CRC-valid chunk record whose count field claims 2^32-1
  // entries but carries only two: the clamped reserve plus the poisoned
  // cursor must turn this into a skippable parse error, not a bad_alloc.
  {
    io::FileWriter writer(path, nullptr, io::FileWriter::Mode::kAppend);
    io::Buffer payload;
    payload.PutU8(2);  // kChunkRecord
    payload.PutU32(0xFFFFFFFFu);
    payload.PutU32(4);
    payload.PutU32(5);
    ASSERT_TRUE(io::WriteRecord(writer, payload.bytes()).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const Result<persist::WalContents> contents =
      persist::ReadWal(path, fingerprint);
  EXPECT_FALSE(contents.ok());
  EXPECT_NE(contents.status().message().find("malformed chunk record"),
            std::string::npos);
}

TEST(Wal, TornAndFlippedTailsDropOnlyTheDamagedSuffix) {
  const auto dataset = MakeSmallBib(807);
  stream::IncrementalCoverOptions cover_options;
  const persist::StateFingerprint fingerprint =
      persist::StateFingerprint::Of(*dataset, cover_options);
  const std::string dir = ScratchDir("wal_torn");
  const std::string path = dir + "/wal.log";
  {
    persist::WalWriter writer(path);
    ASSERT_TRUE(writer.Create(fingerprint).ok());
    ASSERT_TRUE(writer.AppendChunk({1, 2, 3}).ok());
    ASSERT_TRUE(writer.AppendChunk({4, 5}).ok());
  }
  const std::string intact = ReadAll(path);

  // Torn mid-final-record: the first chunk survives, the tail reports torn.
  fs::resize_file(path, intact.size() - 3);
  Result<persist::WalContents> contents =
      persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->header_valid);
  EXPECT_TRUE(contents->torn_tail);
  ASSERT_EQ(contents->chunks.size(), 1u);
  EXPECT_EQ(contents->chunks[0], (std::vector<data::EntityId>{1, 2, 3}));
  EXPECT_LT(contents->valid_bytes, intact.size());

  // A flipped byte inside the final record's checksum drops that record.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::string flipped = intact;
    flipped[intact.size() - 10] ^= 0x01;
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  contents = persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->chunks.size(), 1u);

  // A file cut inside the 12-byte prefix reads as never-created.
  fs::resize_file(path, 7);
  contents = persist::ReadWal(path, fingerprint);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->header_valid);
  EXPECT_EQ(contents->num_inserts, 0u);

  // A full-size prefix with the wrong magic is a wrong file, not a crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::string wrong = intact;
    wrong[0] = 'X';
    out.write(wrong.data(), static_cast<std::streamsize>(wrong.size()));
  }
  const Result<persist::WalContents> bad_magic =
      persist::ReadWal(path, fingerprint);
  EXPECT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("bad magic"),
            std::string::npos);
}

// --- golden fixtures --------------------------------------------------------

/// The committed fixtures: snapshots of the Figure 1 corpus streamed in a
/// fixed shuffled order with 4 LSH shards, one per format version. Only
/// the current version's is regenerated (only on a deliberate format
/// change, with a version bump), via:
///   CEM_WRITE_GOLDEN=1 ./persist_test --gtest_filter='GoldenV2.*'
std::string GoldenDir(uint32_t version) {
  return std::string(CEM_TEST_DATA_DIR) + "/golden_v" +
         std::to_string(version);
}

struct GoldenSetup {
  data::Figure1 fig;
  std::unique_ptr<mln::MlnMatcher> matcher;
  ExecutionContext ctx{1, /*num_shards=*/4};
  StreamingOptions options;

  GoldenSetup() : fig(data::MakeFigure1()) {
    matcher = std::make_unique<mln::MlnMatcher>(*fig.dataset,
                                                mln::MlnWeights::Figure1Demo());
    options.context = &ctx;
  }

  std::unique_ptr<StreamingMatcher> Stream() const {
    auto streaming = std::make_unique<StreamingMatcher>(*matcher, options);
    FeedChunks(*streaming, ShuffledRefs(*fig.dataset, /*seed=*/1), 4);
    return streaming;
  }

  /// Loads the committed fixture of `version` and checks it against a
  /// fresh stream, the cover's rebuilt membership included.
  void ExpectFixtureMatchesAFreshStream(uint32_t version) const {
    const std::vector<persist::SnapshotRef> snapshots =
        persist::ListSnapshots(GoldenDir(version));
    ASSERT_EQ(snapshots.size(), 1u)
        << "missing committed fixture under " << GoldenDir(version);
    StreamingMatcher loaded(*matcher, options);
    ASSERT_TRUE(persist::LoadSnapshot(snapshots[0].path, loaded).ok());
    EXPECT_EQ(testing_util::StaleMembershipRows(loaded.cover(),
                                                fig.dataset->num_entities()),
              std::vector<data::EntityId>{});
    ExpectSameState(loaded, *Stream(), "golden v" + std::to_string(version));
  }
};

/// A scratch copy of the committed v1 snapshot.
std::string CopyGoldenV1(const std::string& name) {
  const std::vector<persist::SnapshotRef> snapshots =
      persist::ListSnapshots(GoldenDir(1));
  EXPECT_EQ(snapshots.size(), 1u);
  const std::string snap =
      ScratchDir(name) + "/" + persist::SnapshotDirName(9);
  fs::copy(snapshots.at(0).path, snap, fs::copy_options::recursive);
  return snap;
}

TEST(GoldenV1, FixtureLoadsAndMatchesAFreshStream) {
  GoldenSetup().ExpectFixtureMatchesAFreshStream(1);
}

TEST(GoldenV1, BucketFilesAreNeverOpened) {
  // v1 saved each LSH shard's buckets beside the signatures. A load
  // rebuilds the buckets from the signatures, so a missing or damaged
  // bucket file changes nothing.
  const GoldenSetup setup;
  const std::string snap = CopyGoldenV1("golden_v1_buckets");
  ASSERT_TRUE(fs::remove(snap + "/lsh_0.bin"));
  {
    std::ofstream out(snap + "/lsh_1.bin", std::ios::binary | std::ios::trunc);
    out << "not a snapshot file";
  }
  StreamingMatcher loaded(*setup.matcher, setup.options);
  ASSERT_TRUE(persist::LoadSnapshot(snap, loaded).ok());
  ExpectSameState(loaded, *setup.Stream(), "v1 without bucket files");
}

TEST(GoldenV1, DamagedFullRowIsStillRejected) {
  // v1's full membership rows are derived state that a load drops, but
  // they are decoded and validated first.
  const GoldenSetup setup;
  const std::string snap = CopyGoldenV1("golden_v1_full_row");
  const std::string path = snap + "/cover.bin";
  uint32_t version = 0;
  const Result<std::string> payload = io::ReadFramedFile(
      path, persist::kSnapshotMagic, persist::kSnapshotVersion, &version);
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_EQ(version, 1u);
  std::string bytes = *payload;
  // Walk the v1 layout: neighborhoods, core rows, then full rows.
  io::Cursor in(std::string_view(bytes).substr(1));
  const uint64_t neighborhoods = in.GetU64();
  for (uint64_t i = 0; i < neighborhoods; ++i) {
    const uint32_t size = in.GetU32();
    for (uint32_t m = 0; m < size; ++m) in.GetU32();
  }
  size_t last_first_home = 0;
  for (int table = 0; table < 2; ++table) {
    const uint64_t rows = in.GetU64();
    ASSERT_GT(rows, 0u);
    for (uint64_t r = 0; r < rows; ++r) {
      in.GetU32();  // Entity.
      last_first_home = bytes.size() - in.remaining();
      in.GetU32();
      const uint32_t homes = in.GetU32();
      for (uint32_t h = 0; h < homes; ++h) in.GetU32();
    }
  }
  ASSERT_TRUE(in.AtEnd());
  // The last full row's first home now names none of its homes.
  bytes.replace(last_first_home, 4, std::string(4, '\xff'));
  ASSERT_TRUE(io::WriteFramedFile(path, persist::kSnapshotMagic, 1, bytes)
                  .ok());
  StreamingMatcher loaded(*setup.matcher, setup.options);
  const Status status = persist::LoadSnapshot(snap, loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("malformed membership entry"),
            std::string::npos)
      << status;
}

TEST(GoldenV1, FilesOfAnotherVersionThanTheManifestAreRejected) {
  // Each section decodes by its own version, so one snapshot never mixes
  // formats: a v2-framed file inside a v1 snapshot fails the load.
  const GoldenSetup setup;
  const std::string snap = CopyGoldenV1("golden_v1_mixed");
  ReframeAt(snap + "/stream.bin", persist::kSnapshotMagic, 2);
  StreamingMatcher loaded(*setup.matcher, setup.options);
  const Status status = persist::LoadSnapshot(snap, loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version differs from MANIFEST"),
            std::string::npos)
      << status;
}

TEST(GoldenV1, UnknownVersionAndBadMagicAreRejectedNotMisread) {
  const GoldenSetup setup;
  const std::string snap = CopyGoldenV1("golden_tamper");

  // Bump the MANIFEST's version field (offset 8, little-endian u32) past
  // the newest this reader knows.
  const std::string manifest = snap + "/MANIFEST";
  std::string bytes = ReadAll(manifest);
  {
    bytes[8] = static_cast<char>(persist::kSnapshotVersion + 1);
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  StreamingMatcher versioned(*setup.matcher, setup.options);
  Status status = persist::LoadSnapshot(snap, versioned);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported version"), std::string::npos);

  // Break the magic instead.
  {
    bytes[8] = 1;
    bytes[0] ^= 0x01;
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  StreamingMatcher magicked(*setup.matcher, setup.options);
  status = persist::LoadSnapshot(snap, magicked);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad magic"), std::string::npos);
}

TEST(GoldenV2, FixtureLoadsAndMatchesAFreshStream) {
  const GoldenSetup setup;
  if (std::getenv("CEM_WRITE_GOLDEN") != nullptr) {
    fs::remove_all(GoldenDir(2));
    ASSERT_TRUE(persist::SaveSnapshot(GoldenDir(2), *setup.Stream()).ok());
    GTEST_SKIP() << "wrote golden fixture to " << GoldenDir(2);
  }
  setup.ExpectFixtureMatchesAFreshStream(2);
}

TEST(GoldenV2, ReSaveReproducesTheCommittedBytesExactly) {
  const GoldenSetup setup;
  if (std::getenv("CEM_WRITE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "fixture being (re)written by the load test";
  }
  const std::vector<persist::SnapshotRef> snapshots =
      persist::ListSnapshots(GoldenDir(2));
  ASSERT_EQ(snapshots.size(), 1u);
  const std::string dir = ScratchDir("golden_resave");
  ASSERT_TRUE(persist::SaveSnapshot(dir, *setup.Stream()).ok());
  const std::string resnap = persist::ListSnapshots(dir)[0].path;

  size_t files = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(snapshots[0].path)) {
    const std::string name = entry.path().filename().string();
    ++files;
    EXPECT_EQ(ReadAll((fs::path(resnap) / name).string()),
              ReadAll(entry.path().string()))
        << name << " drifted from the committed v2 bytes — a format change "
                   "needs a version bump, not a fixture rewrite";
  }
  // MANIFEST + stream + matches + cover + 4 signature shards, and the
  // re-save writes nothing else.
  EXPECT_EQ(files, 8u);
  EXPECT_EQ(std::distance(fs::directory_iterator(resnap),
                          fs::directory_iterator()),
            8);
}

}  // namespace
}  // namespace cem
