// Persistence cost: snapshot save/load throughput and WAL replay rate vs
// live streamed ingest.
//
// The persist subsystem (persist::PersistentStreamingMatcher) makes the
// streaming front door durable: every ingest chunk is appended to a
// checksummed WAL before it is applied, and quiescent snapshots bound the
// replay work after a crash. Durability is only viable if its overheads
// stay small next to the matching work itself, so this bench measures the
// three costs a production deployment pays:
//  * WAL overhead — full streamed replay with the WAL on vs off; the
//    append+flush tax on every chunk.
//  * snapshot save/load — MB/s over the versioned binary format, with the
//    per-shard signature files written and read as parallel jobs.
//  * recovery — WAL-replay rate (refs/s) vs live ingest: replay skips the
//    durability tax, so a crash recovers faster than the run that fed it.
//
// The "counter_persist_*" metrics gate the on-disk footprint in CI: the
// format is byte-stable for a fixed corpus, arrival order and shard count
// (the bench pins all three), so any change to the encoded sizes is a
// deliberate format change, which must re-bless these baselines.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mln/mln_matcher.h"
#include "obs/metrics.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "stream/streaming_matcher.h"
#include "util/execution_context.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace cem;
namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("cem_bench_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double Mbps(uint64_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / std::max(seconds, 1e-9);
}

}  // namespace

int main() {
  const double scale = bench::Begin(
      "bench_persist — snapshot + WAL durability overheads",
      "incremental maintenance extends to durable state: a checksummed "
      "write-ahead log plus quiescent snapshots recover a crashed stream "
      "bit-identically, at a small constant tax on live ingest");
  bench::JsonReport report("bench_persist");

  // Fixed shard count: the snapshot writes one signature file per shard,
  // so the gated byte and file counters must not follow the host's core
  // count. Thread count stays hardware-sized (0) — results are
  // thread-invariant by the streaming determinism contract.
  ExecutionContext ctx(/*num_threads=*/0, /*num_shards=*/16);
  eval::Workload w =
      eval::MakeDblpWorkload(scale, core::BlockingStrategy::kLsh, ctx);
  mln::MlnMatcher matcher(*w.dataset);
  stream::StreamingOptions options;
  options.context = &ctx;

  std::vector<data::EntityId> refs = w.dataset->author_refs();
  Rng(2026).Shuffle(refs);
  const size_t kChunk = 64;
  const auto feed = [&](auto& target) {
    for (size_t start = 0; start < refs.size(); start += kChunk) {
      const size_t end = std::min(refs.size(), start + kChunk);
      target.AddBatch({refs.begin() + start, refs.begin() + end});
    }
  };

  // --- live ingest, WAL off (the bare streaming cost).
  Timer bare_timer;
  stream::StreamingMatcher bare(matcher, options);
  feed(bare);
  const double bare_seconds = bare_timer.ElapsedSeconds();

  // --- live ingest, WAL on (append + flush ahead of every chunk).
  const std::string dir = FreshDir("persist");
  persist::PersistentStreamingMatcher live(matcher, options,
                                           {dir, /*snapshot_every=*/0});
  CEM_CHECK(live.Start().ok());
  Timer live_timer;
  feed(live);
  const double live_seconds = live_timer.ElapsedSeconds();
  CEM_CHECK(live.matcher().matches() == bare.matches());
  const uint64_t wal_bytes =
      fs::file_size(fs::path(dir) / "wal.log");

  // --- snapshot save + load.
  Timer save_timer;
  CEM_CHECK(live.Checkpoint().ok());
  const double save_seconds = save_timer.ElapsedSeconds();
  const std::vector<persist::SnapshotRef> snaps = persist::ListSnapshots(dir);
  CEM_CHECK(snaps.size() == 1);
  const uint64_t snap_bytes = TreeBytes(snaps[0].path);
  size_t snap_files = 0;
  for (const auto& entry : fs::directory_iterator(snaps[0].path)) {
    (void)entry;
    ++snap_files;
  }

  stream::StreamingMatcher loaded(matcher, options);
  Timer load_timer;
  CEM_CHECK(persist::LoadSnapshot(snaps[0].path, loaded).ok());
  const double load_seconds = load_timer.ElapsedSeconds();
  CEM_CHECK(loaded.matches() == bare.matches());

  // --- live ingest, WAL on with fsync (power-loss durability): every
  // chunk pays a disk barrier, populating the fsync-latency histogram.
  const std::string fsync_dir = FreshDir("persist_fsync");
  persist::PersistentStreamingMatcher durable(
      matcher, options,
      {fsync_dir, /*snapshot_every=*/0, /*faults=*/nullptr, /*fsync=*/true});
  CEM_CHECK(durable.Start().ok());
  Timer fsync_timer;
  feed(durable);
  const double fsync_seconds = fsync_timer.ElapsedSeconds();
  CEM_CHECK(durable.matcher().matches() == bare.matches());

  // --- crash recovery: rebuild the whole run from the WAL alone.
  const std::string wal_only = FreshDir("persist_walonly");
  fs::copy(fs::path(dir) / "wal.log", fs::path(wal_only) / "wal.log");
  persist::PersistentStreamingMatcher recovered(matcher, options,
                                                {wal_only, 0});
  persist::RecoveryInfo info;
  Timer replay_timer;
  CEM_CHECK(recovered.Recover(&info).ok());
  const double replay_seconds = replay_timer.ElapsedSeconds();
  CEM_CHECK(recovered.matcher().matches() == bare.matches());

  const double n = static_cast<double>(refs.size());
  TableWriter ingest({"path", "refs", "wall (s)", "refs/s", "vs bare"});
  ingest.AddRow({"bare streaming", std::to_string(refs.size()),
                 bench::Secs(bare_seconds),
                 TableWriter::Num(n / std::max(bare_seconds, 1e-9), 0), "1.0"});
  ingest.AddRow({"WAL-ahead ingest", std::to_string(refs.size()),
                 bench::Secs(live_seconds),
                 TableWriter::Num(n / std::max(live_seconds, 1e-9), 0),
                 TableWriter::Num(live_seconds / std::max(bare_seconds, 1e-9),
                                  2)});
  ingest.AddRow({"WAL + fsync ingest", std::to_string(refs.size()),
                 bench::Secs(fsync_seconds),
                 TableWriter::Num(n / std::max(fsync_seconds, 1e-9), 0),
                 TableWriter::Num(fsync_seconds /
                                      std::max(bare_seconds, 1e-9),
                                  2)});
  ingest.AddRow({"WAL replay (recovery)", std::to_string(info.chunks_replayed),
                 bench::Secs(replay_seconds),
                 TableWriter::Num(n / std::max(replay_seconds, 1e-9), 0),
                 TableWriter::Num(replay_seconds /
                                      std::max(bare_seconds, 1e-9),
                                  2)});
  report.Table("ingest", ingest);
  std::printf(
      "The WAL tax is the append+flush ahead of every chunk; recovery "
      "replays the same chunks without it, so a crashed run comes back at "
      "least as fast as it streamed.\n\n");

  TableWriter snapshot({"op", "bytes", "files", "wall (s)", "MB/s"});
  snapshot.AddRow({"save", std::to_string(snap_bytes),
                   std::to_string(snap_files), bench::Secs(save_seconds),
                   TableWriter::Num(Mbps(snap_bytes, save_seconds), 1)});
  snapshot.AddRow({"load", std::to_string(snap_bytes),
                   std::to_string(snap_files), bench::Secs(load_seconds),
                   TableWriter::Num(Mbps(snap_bytes, load_seconds), 1)});
  report.Table("snapshot", snapshot);
  std::printf(
      "Signature shards save and load as parallel jobs; the footprint "
      "counters below pin the on-disk format size in CI.\n\n");

  // --- durability latency percentiles, from the instrumented persist
  // layer (obs registry): what each WAL append costs, the isolated fsync
  // barrier, and the snapshot round trips. Host-dependent, never gated.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  TableWriter latency({"histogram", "count", "p50 (us)", "p95 (us)",
                       "p99 (us)"});
  const auto hist_row = [&](const char* label, const char* name) {
    const obs::HistogramStats stats = registry.histogram(name).Stats();
    latency.AddRow({label, std::to_string(stats.count),
                    TableWriter::Num(stats.p50, 1),
                    TableWriter::Num(stats.p95, 1),
                    TableWriter::Num(stats.p99, 1)});
  };
  hist_row("WAL append (flush)", "persist_wal_append_us");
  hist_row("WAL fsync barrier", "persist_wal_fsync_us");
  hist_row("snapshot save", "persist_snapshot_save_us");
  hist_row("snapshot load", "persist_snapshot_load_us");
  report.Table("durability_latency", latency);
  std::printf(
      "The fsync barrier dominates the durable-ingest tax; WAL appends "
      "without it are buffered flushes.\n");

  report.Metric("counter_persist_wal_bytes", static_cast<double>(wal_bytes));
  report.Metric("counter_persist_snapshot_bytes",
                static_cast<double>(snap_bytes));
  report.Metric("counter_persist_snapshot_files",
                static_cast<double>(snap_files));
  report.Metric("counter_persist_chunks_replayed",
                static_cast<double>(info.chunks_replayed));
  report.Metric("counter_persist_recovered_inserts",
                static_cast<double>(info.inserts_recovered));
  report.Write();

  fs::remove_all(dir);
  fs::remove_all(fsync_dir);
  fs::remove_all(wal_only);
  return 0;
}
