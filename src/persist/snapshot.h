#ifndef CEM_PERSIST_SNAPSHOT_H_
#define CEM_PERSIST_SNAPSHOT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "persist/format.h"
#include "stream/streaming_matcher.h"
#include "text/token_index.h"
#include "util/execution_context.h"
#include "util/io.h"
#include "util/status.h"

namespace cem::persist {

/// One snapshot = the subdirectory `<dir>/snap_<inserts>/` holding
///   stream.bin    arrival order, seed map, ingest counters
///   matches.bin   converged match keys + matching counters
///   cover.bin     neighborhoods + core membership rows
///   sig_<s>.bin   MinHash signatures of slots == s (mod num_shards)
///   MANIFEST      fingerprint + cross-checked counts — written LAST, so
///                 its presence and checksum mark the snapshot complete.
/// Every file is an io::WriteFramedFile (magic + version + one checksummed
/// record); all containers are sorted at write time and every integer is
/// explicit little-endian, so the bytes are a pure function of the state —
/// save -> load -> save reproduces identical files (pinned by tests, and
/// what makes the committed golden fixtures stable across hosts).
///
/// Only genuine state is saved. A load rebuilds the cover's membership from
/// the neighborhoods and the LSH buckets from the signatures, for any LSH
/// shard count. Signature files are written and read as ExecutionContext
/// parallel-for jobs; their count is recorded in the MANIFEST. Version 1
/// snapshots still load (see kSnapshotVersion).

/// Saves one complete snapshot of `matcher` (which must be quiescent —
/// every Add/AddBatch returns quiescent) under `dir`, creating
/// `dir/snap_<inserts>/`. Re-saving at the same insert count overwrites in
/// place, removing the MANIFEST first so a crash mid-overwrite can never
/// leave a stale completeness marker on half-written files. A simulated
/// crash from `faults` propagates as the Internal "simulated crash" status.
/// With `sync` every file is fsynced and the directory entries are synced
/// after the MANIFEST lands, making the snapshot durable against OS
/// crashes and power loss, not just process kills.
Status SaveSnapshot(const std::string& dir,
                    const stream::StreamingMatcher& matcher,
                    io::FaultPlan* faults = nullptr, bool sync = false);

/// A snapshot candidate under a state directory.
struct SnapshotRef {
  size_t inserts = 0;
  std::string path;  // The snap_<inserts> subdirectory.
};

/// Snapshot subdirectories under `dir`, newest (most inserts) first.
/// Includes incomplete/corrupt candidates — LoadSnapshot decides.
std::vector<SnapshotRef> ListSnapshots(const std::string& dir);

/// Loads the snapshot at `snap_dir` into `matcher`, which must be freshly
/// constructed over the same dataset and options (fingerprint-checked
/// against the MANIFEST). Any missing file, checksum failure, version
/// mismatch or structural inconsistency returns a non-OK status naming the
/// problem; recovery treats that as "skip this snapshot", never a crash.
Status LoadSnapshot(const std::string& snap_dir,
                    stream::StreamingMatcher& matcher);

// --- token index ------------------------------------------------------------
// The canopy-blocking TokenIndex persists standalone (it belongs to the
// batch front-end, not the streaming matcher): toki_meta.bin plus
// toki_<s>.bin files with documents partitioned by doc_id (mod shards).
// Postings are rebuilt from the saved token sets on load — normalisation
// is idempotent and the shard partition re-derives locally instead of
// trusting a saved std::hash assignment across processes.

/// Saves `index` into `dir` (created if needed), sharded by its own
/// num_shards(); shard files write in parallel on `ctx`. `sync` as in
/// SaveSnapshot.
Status SaveTokenIndex(const std::string& dir, const text::TokenIndex& index,
                      const ExecutionContext& ctx = ExecutionContext::Default(),
                      io::FaultPlan* faults = nullptr, bool sync = false);

/// Loads a saved token index into empty `index` (any shard count); shard
/// files read in parallel on `ctx`.
Status LoadTokenIndex(const std::string& dir, text::TokenIndex& index,
                      const ExecutionContext& ctx = ExecutionContext::Default());

}  // namespace cem::persist

#endif  // CEM_PERSIST_SNAPSHOT_H_
