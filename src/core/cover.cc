#include "core/cover.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::core {
namespace {

void Normalize(std::vector<data::EntityId>& entities) {
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
}

bool ContainsSorted(const std::vector<data::EntityId>& sorted,
                    data::EntityId e) {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}

}  // namespace

Cover::Cover(std::vector<Neighborhood> neighborhoods)
    : neighborhoods_(std::move(neighborhoods)) {
  for (Neighborhood& n : neighborhoods_) Normalize(n.entities);
  membership_ = CoverMembership(*this);
}

size_t Cover::Add(std::vector<data::EntityId> entities) {
  Normalize(entities);
  const auto i = static_cast<uint32_t>(neighborhoods_.size());
  for (data::EntityId e : entities) membership_.Add(e, i);
  neighborhoods_.push_back(Neighborhood{std::move(entities)});
  return i;
}

bool Cover::AddEntityTo(size_t i, data::EntityId entity) {
  CEM_CHECK(i < neighborhoods_.size());
  std::vector<data::EntityId>& v = neighborhoods_[i].entities;
  auto it = std::lower_bound(v.begin(), v.end(), entity);
  if (it != v.end() && *it == entity) return false;
  v.insert(it, entity);
  membership_.Add(entity, static_cast<uint32_t>(i));
  return true;
}

size_t Cover::MaxNeighborhoodSize() const {
  size_t max_size = 0;
  for (const Neighborhood& n : neighborhoods_) {
    max_size = std::max(max_size, n.entities.size());
  }
  return max_size;
}

double Cover::MeanNeighborhoodSize() const {
  if (neighborhoods_.empty()) return 0.0;
  size_t total = 0;
  for (const Neighborhood& n : neighborhoods_) total += n.entities.size();
  return static_cast<double>(total) / neighborhoods_.size();
}

size_t Cover::ContainedPairs(const data::Dataset& dataset, size_t i) const {
  const std::vector<data::EntityId>& members = neighborhoods_[i].entities;
  size_t contained = 0;
  for (data::EntityId e : members) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = dataset.candidate_pair(id).pair;
      if (p.a == e && ContainsSorted(members, p.b)) ++contained;
    }
  }
  return contained;
}

size_t Cover::TotalContainedPairs(const data::Dataset& dataset) const {
  size_t total = 0;
  for (size_t i = 0; i < neighborhoods_.size(); ++i) {
    total += ContainedPairs(dataset, i);
  }
  return total;
}

bool Cover::CoversAllAuthorRefs(const data::Dataset& dataset) const {
  for (data::EntityId ref : dataset.author_refs()) {
    if (!membership_.Contains(ref)) return false;
  }
  return true;
}

bool Cover::IsTotalForCoauthor(const data::Dataset& dataset) const {
  // Every Coauthor tuple (u, v) must lie inside some neighborhood.
  for (data::EntityId u : dataset.author_refs()) {
    for (data::EntityId v : dataset.Coauthors(u)) {
      if (v < u) continue;  // Each symmetric tuple once.
      if (!membership_.Together(u, v)) return false;
    }
  }
  return true;
}

double Cover::CandidatePairCoverage(const data::Dataset& dataset) const {
  if (dataset.num_candidate_pairs() == 0) return 1.0;
  size_t covered = 0;
  for (const data::CandidatePair& cp : dataset.candidate_pairs()) {
    if (membership_.Together(cp.pair.a, cp.pair.b)) ++covered;
  }
  return static_cast<double>(covered) /
         static_cast<double>(dataset.num_candidate_pairs());
}

const std::vector<uint32_t> CoverMembership::kEmptyHomes;

CoverMembership::CoverMembership(const Cover& cover) {
  // Counted first, so every row is allocated once. Appending in index order
  // then keeps every row sorted, and each row's first append is its first
  // home.
  std::vector<uint32_t> counts;
  for (const Neighborhood& n : cover.neighborhoods()) {
    for (data::EntityId e : n.entities) {
      if (e >= counts.size()) counts.resize(size_t{e} + 1, 0);
      ++counts[e];
    }
  }
  rows_.resize(counts.size());
  for (size_t e = 0; e < counts.size(); ++e) {
    rows_[e].homes.reserve(counts[e]);
    if (counts[e] > 0) ++num_entities_;
  }
  for (uint32_t i = 0; i < cover.size(); ++i) {
    for (data::EntityId e : cover.neighborhood(i).entities) {
      Entry& row = rows_[e];
      if (row.homes.empty()) row.first_home = i;
      row.homes.push_back(i);
    }
  }
}

bool CoverMembership::Together(data::EntityId a, data::EntityId b) const {
  const std::vector<uint32_t>& ha = HomesOf(a);
  const std::vector<uint32_t>& hb = HomesOf(b);
  size_t i = 0;
  size_t j = 0;
  while (i < ha.size() && j < hb.size()) {
    if (ha[i] == hb[j]) return true;
    if (ha[i] < hb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

uint32_t CoverMembership::FirstHome(data::EntityId e) const {
  CEM_CHECK(Contains(e)) << "FirstHome of an uncovered entity";
  return rows_[e].first_home;
}

bool CoverMembership::Add(data::EntityId e, uint32_t n) {
  if (e >= rows_.size()) rows_.resize(size_t{e} + 1);
  Entry& row = rows_[e];
  const auto pos = std::lower_bound(row.homes.begin(), row.homes.end(), n);
  if (pos != row.homes.end() && *pos == n) return false;
  if (row.homes.empty()) {
    row.first_home = n;
    ++num_entities_;
  }
  row.homes.insert(pos, n);
  return true;
}

std::vector<MembershipEntry> CoverMembership::SortedEntries() const {
  std::vector<MembershipEntry> out;
  out.reserve(num_entities_);
  for (size_t e = 0; e < rows_.size(); ++e) {
    const Entry& row = rows_[e];
    if (row.homes.empty()) continue;
    out.push_back(
        {static_cast<data::EntityId>(e), row.first_home, row.homes});
  }
  return out;
}

CoverMembership CoverMembership::FromEntries(
    std::vector<MembershipEntry> entries) {
  CEM_CHECK(std::adjacent_find(entries.begin(), entries.end(),
                               [](const MembershipEntry& a,
                                  const MembershipEntry& b) {
                                 return a.entity >= b.entity;
                               }) == entries.end())
      << "membership entries must name ascending, unique entities";
  CoverMembership membership;
  if (!entries.empty()) {
    membership.rows_.resize(size_t{entries.back().entity} + 1);
  }
  for (MembershipEntry& e : entries) {
    CEM_CHECK(std::is_sorted(e.homes.begin(), e.homes.end()) &&
              std::adjacent_find(e.homes.begin(), e.homes.end()) ==
                  e.homes.end())
        << "membership homes must be sorted and unique";
    CEM_CHECK(std::binary_search(e.homes.begin(), e.homes.end(),
                                 e.first_home))
        << "first_home must be one of the homes";
    Entry& row = membership.rows_[e.entity];
    row.first_home = e.first_home;
    row.homes = std::move(e.homes);
  }
  membership.num_entities_ = entries.size();
  return membership;
}

namespace {

/// Candidate pairs speculatively checked per round. Constant (not derived
/// from the thread count) so the recheck pattern — and the PatchStats
/// counters — are identical for any ExecutionContext.
constexpr size_t kPatchBatch = 4096;
/// Pairs per parallel task inside a batch: one split check is far cheaper
/// than a task dispatch, so workers pull chunks, not single pairs.
constexpr size_t kPatchChunk = 64;

}  // namespace

void PatchPairCoverage(const data::Dataset& dataset, Cover& cover,
                       const ExecutionContext& ctx, PatchStats* stats) {
  CEM_TRACE("core/patch_pair_coverage");
  const CoverMembership& homes = cover.membership();

  const std::vector<data::CandidatePair>& pairs = dataset.candidate_pairs();
  const size_t num_pairs = pairs.size();
  size_t patched = 0;
  size_t rechecked = 0;
  std::vector<uint8_t> split(std::min(kPatchBatch, num_pairs), 0);
  for (size_t start = 0; start < num_pairs; start += kPatchBatch) {
    const size_t len = std::min(kPatchBatch, num_pairs - start);
    // Parallel phase: split detection against the membership as of the
    // previous batch's replay — strictly read-only.
    const size_t num_chunks = (len + kPatchChunk - 1) / kPatchChunk;
    ParallelFor(ctx.pool(), num_chunks, [&](size_t c) {
      const size_t chunk_end = std::min(len, (c + 1) * kPatchChunk);
      for (size_t i = c * kPatchChunk; i < chunk_end; ++i) {
        const data::EntityPair& p = pairs[start + i].pair;
        split[i] = homes.Together(p.a, p.b) ? 0 : 1;
      }
    });
    // Serial phase: replay the repairs in pair order. Membership only
    // grows (and repairs target FirstHome(p.a), which later additions
    // never change), so this is exactly the serial algorithm's outcome
    // for every pair.
    bool dirty = false;
    for (size_t i = 0; i < len; ++i) {
      if (!split[i]) continue;
      const data::EntityPair& p = pairs[start + i].pair;
      if (dirty) {
        ++rechecked;
        if (homes.Together(p.a, p.b)) continue;
      }
      CEM_CHECK(homes.Contains(p.a)) << "cover must contain every ref";
      cover.AddEntityTo(homes.FirstHome(p.a), p.b);
      ++patched;
      dirty = true;
    }
  }
  if (stats != nullptr) {
    stats->pairs_patched = patched;
    stats->pairs_rechecked = rechecked;
  }
  // Registry counters bump once per pass, at the serial tail, with the
  // already-deterministic totals — never inside the speculative batches —
  // so the exported counter_* values hold the thread/shard-invariance
  // contract (pinned by the obs determinism suite).
  static obs::Counter& patched_counter =
      obs::MetricsRegistry::Global().counter("core_pairs_patched");
  static obs::Counter& rechecked_counter =
      obs::MetricsRegistry::Global().counter("core_pairs_rechecked");
  patched_counter.Add(patched);
  rechecked_counter.Add(rechecked);
}

void ExpandCoauthorBoundary(const data::Dataset& dataset, Cover& cover,
                            const ExecutionContext& ctx) {
  CEM_TRACE("core/expand_coauthor_boundary");
  // Each iteration mutates only neighborhood i, so neighborhoods expand in
  // parallel without synchronisation; the membership, which every worker
  // would touch, is rebuilt once afterwards. The coauthors of all members
  // are gathered before any is added, so one round adds exactly the
  // original members' coauthors.
  cover.membership_ = {};
  ParallelFor(ctx.pool(), cover.size(), [&](size_t i) {
    std::vector<data::EntityId>& members = cover.neighborhoods_[i].entities;
    std::vector<data::EntityId> boundary;
    for (data::EntityId e : members) {
      const std::vector<data::EntityId>& coauthors = dataset.Coauthors(e);
      boundary.insert(boundary.end(), coauthors.begin(), coauthors.end());
    }
    Normalize(boundary);
    std::vector<data::EntityId> merged;
    merged.reserve(members.size() + boundary.size());
    std::set_union(members.begin(), members.end(), boundary.begin(),
                   boundary.end(), std::back_inserter(merged));
    members = std::move(merged);
  });
  cover.membership_ = CoverMembership(cover);
}

std::string Cover::Summary(const data::Dataset& dataset) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu neighborhoods, max size %zu, mean size %.1f, "
                "%zu contained pairs, pair coverage %.3f",
                size(), MaxNeighborhoodSize(), MeanNeighborhoodSize(),
                TotalContainedPairs(dataset),
                CandidatePairCoverage(dataset));
  return buf;
}

}  // namespace cem::core
