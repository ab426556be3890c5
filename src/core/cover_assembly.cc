#include "core/cover_assembly.h"

#include <utility>

#include "util/logging.h"
#include "util/random.h"

namespace cem::core {
namespace {

/// Documents speculatively scanned per round. Constant (not derived from
/// the thread count) so the scanned set — and the work counters — are
/// identical for any ExecutionContext; large enough to keep 8+ workers
/// busy on scans that take microseconds each.
constexpr size_t kScanBatch = 256;

}  // namespace

Cover AssembleCanopies(const std::vector<data::EntityId>& refs, uint64_t seed,
                       double tight, const AssemblyCandidateFn& candidate_fn,
                       const ExecutionContext& ctx, size_t* pairs_considered) {
  const size_t num_docs = refs.size();
  Rng rng(seed);
  std::vector<uint32_t> seed_order(num_docs);
  for (uint32_t i = 0; i < num_docs; ++i) seed_order[i] = i;
  rng.Shuffle(seed_order);

  std::vector<bool> seeded_out(num_docs, false);
  // Collected first, so the cover's membership is counted once at the end.
  std::vector<Neighborhood> neighborhoods;
  size_t considered = 0;

  std::vector<uint32_t> batch;
  std::vector<std::vector<AssemblyCandidate>> scans;
  std::vector<size_t> scored;
  size_t cursor = 0;
  while (cursor < num_docs) {
    // Collect the next batch of still-live seeds. Members seeded out by an
    // earlier member of the *same* batch are scanned speculatively — the
    // scan is wasted, the output unchanged.
    batch.clear();
    while (cursor < num_docs && batch.size() < kScanBatch) {
      const uint32_t doc = seed_order[cursor++];
      if (!seeded_out[doc]) batch.push_back(doc);
    }

    // Parallel phase: candidate scans against read-only index state.
    scans.assign(batch.size(), {});
    scored.assign(batch.size(), 0);
    ParallelFor(ctx.pool(), batch.size(), [&](size_t i) {
      scans[i] = candidate_fn(batch[i], &scored[i]);
    });

    // Serial phase: replay the canopy loop over the precomputed scans —
    // exactly the order the single-threaded algorithm would take.
    for (size_t i = 0; i < batch.size(); ++i) {
      considered += scored[i];
      const uint32_t doc = batch[i];
      if (seeded_out[doc]) continue;
      seeded_out[doc] = true;
      std::vector<data::EntityId> members{refs[doc]};
      members.reserve(scans[i].size() + 1);
      for (const AssemblyCandidate& candidate : scans[i]) {
        members.push_back(refs[candidate.doc_id]);
        if (candidate.score >= tight) seeded_out[candidate.doc_id] = true;
      }
      neighborhoods.push_back({std::move(members)});
    }
  }

  if (pairs_considered != nullptr) *pairs_considered = considered;
  return Cover(std::move(neighborhoods));
}

}  // namespace cem::core
