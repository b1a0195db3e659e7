// PageRankVM (paper Algorithm 2): the core contribution.
//
// For a given VM, every used PM is scored by the PageRank value of the best
// profile reachable by hosting the VM there (maximum over anti-collocation
// permutations, ScoreTable::best_successor); the VM goes to the PM with the
// highest score, with the winning permutation materialized into concrete
// core/disk assignments. If no used PM fits, the
// first unused PM with sufficient resources is activated. The optional
// 2-choice mode (§V-C closing remark) scores two randomly sampled used PMs
// instead of scanning the whole used list. pick() makes that decision
// without touching the ledger; place() is pick() followed by
// Datacenter::place().
//
// Two engines implement the scan. The legacy linear engine scores every
// used PM (O(fleet) per VM, the paper's Algorithm 2 as printed). The
// indexed engine (default) exploits that the score depends only on
// (PM type, canonical profile, VM type) and that ties go to the first PM in
// used_PM_list order: one contiguous sweep over the datacenter's live
// buckets compares (score descending, earliest member's activation sequence
// ascending) across both PM types, which is exactly the linear scan's
// first-hit rule. Scores come from an engine-owned cache with one entry per
// dense bucket slot, tagged with the profile key it was filled for and
// holding the best-successor score of every VM type and the offset of the
// profile's memo entry; a slot whose key changed is refilled with one probe
// into the engine's memo. The memo keeps, per PM type, one entry per live
// profile the engine has seen: [node, best successor x D, representative
// offset x D] for the table's D VM types, the successors worked out the first
// time the engine sees the profile (about 8 µs for an EC2 profile). A
// representative is the winning permutation of Algorithm 2's last step in
// canonical coordinates, the first enumerate_placements() option whose
// canonical outcome is the best successor; it is worked out on first use and
// kept in the PM type's byte arena as count, (dim, amount)... (two bytes per
// item, as the ledger stores assignments). The winner of a sweep carries its
// memo offset, so a warm indexed pick probes no hash table and walks no
// bucket; the linear, constrained and first-unused paths make one memo probe.
// Under the churn-bin benchmark (Release, 4 hardware threads) the loaded
// daemon's loop-thread malloc arena ends a run at about 2.2 MB resident,
// against 2.9 MB when the representatives were heap vectors in a hash map of
// their own (DESIGN.md §3 item 9).
// The chosen PM is identical to the linear scan's for every VM (asserted by
// the differential test), and steady-state picks are allocation-free
// (asserted by the counting-allocator test).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/algorithm.hpp"

namespace prvm {

struct PageRankVmOptions {
  bool two_choice = false;  ///< sample 2 used PMs instead of scanning all
  std::uint64_t seed = 1;   ///< RNG seed for 2-choice sampling
  /// Use the bucketed placement index (same placements, near-O(1) per VM).
  /// Off = the literal linear scan, kept for differential tests/ablation.
  bool use_index = true;
  /// Registry for the engine's prvm_engine_* counters (score lookups,
  /// rep-cache hits). Null = obs::Registry::global().
  obs::Registry* metrics = nullptr;
};

class PageRankVm final : public PlacementAlgorithm {
 public:
  explicit PageRankVm(std::shared_ptr<const ScoreTableSet> tables,
                      PageRankVmOptions options = {});

  std::string_view name() const override { return "PageRankVM"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kPageRankVm; }

  /// pick(), then Datacenter::place() of the pick.
  std::optional<PmIndex> place(Datacenter& dc, const Vm& vm,
                               const PlacementConstraints& constraints = {}) override;

  /// A placement decision that has not touched the ledger: the PM and the
  /// concrete (dimension, amount) assignments of the VM's best permutation
  /// there.
  struct Pick {
    PmIndex pm = Datacenter::kNoPm;
    /// Engine scratch, valid until the next pick() or place().
    std::span<const std::pair<int, int>> assignments;
  };

  /// A representative placement the memo holds: the canonical-space
  /// (dimension, amount) pairs that take profile `profile` of `pm_type`'s
  /// table to its best successor under the table's demand `demand`.
  struct Representative {
    std::size_t pm_type = 0;
    ProfileKey profile = 0;
    std::size_t demand = 0;
    std::vector<std::pair<int, int>> assignments;
  };

  /// Every representative the memo holds, for tests.
  std::vector<Representative> representatives() const;

  /// Algorithm 2 up to its last step: chooses the PM (lines 2-24) and the
  /// winning permutation on it, but leaves `dc` unchanged, so a caller can
  /// validate, log and apply the decision as one record (the placement
  /// service does; DESIGN.md §4c). Datacenter::place(pm, vm, assignments)
  /// of the result is exactly what place() does. nullopt when no allowed PM
  /// can host the VM. Not const: it fills the engine's caches and scratch,
  /// and 2-choice mode draws from the engine's RNG.
  std::optional<Pick> pick(const Datacenter& dc, const Vm& vm,
                           const PlacementConstraints& constraints = {});

  /// Score of placing `vm_type` on PM `i` right now: the PageRank value of
  /// the best resulting profile; nullopt when the VM does not fit. Exposed
  /// for tests and for the migration policy. Not const: a profile the engine
  /// has not seen enters the best-successor memo.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i, std::size_t vm_type);

  /// As above, but accumulates table lookups into `lookups` instead of
  /// bumping the score-lookup counter itself; the linear-scan hot loop uses
  /// this to flush one batched metric update per scan.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i, std::size_t vm_type,
                                        std::uint64_t& lookups);

  const ScoreTableSet& tables() const { return *tables_; }

 private:
  /// The pick of `vm` on PM `i` with the permutation whose canonical
  /// outcome has the highest score (via the memo's representative when
  /// indexing is on), in placement_scratch_. `entry` is the memo offset of
  /// the PM's profile when the pick already knows it.
  Pick best_permutation(const Datacenter& dc, PmIndex i, const Vm& vm,
                        std::optional<std::uint32_t> entry = std::nullopt);

  /// Linear engine: Algorithm 2 as printed (plus 2-choice sampling).
  std::optional<PmIndex> pick_linear(const Datacenter& dc, const Vm& vm,
                                     const PlacementConstraints& constraints);


  /// Indexed engine with exclude/allow constraints (migration re-placement).
  std::optional<PmIndex> pick_indexed_constrained(const Datacenter& dc, std::size_t vm_type,
                                                  const PlacementConstraints& constraints);

  /// Cached score of a VM type that does not fit; below every real score
  /// (scores are >= 0).
  static constexpr float kNoFitScore = -1.0F;

  /// Memo word of a representative not worked out yet.
  static constexpr std::uint32_t kNoRep = 0xFFFFFFFFu;

  /// The running winner of an indexed sweep: highest score, then earliest
  /// activation.
  struct Candidate {
    float score = kNoFitScore;
    std::uint64_t seq = 0;
    PmIndex pm = Datacenter::kNoPm;
    std::uint32_t entry = 0;  ///< memo offset of pm's profile
  };

  /// Indexed engine, no constraints: best PM via the profile buckets
  /// (pm == kNoPm when no used PM fits).
  Candidate pick_indexed(const Datacenter& dc, std::size_t vm_type);

  /// Folds `pm_type`'s live buckets into `best` for demand `demand`,
  /// refreshing the score cache on the way.
  void type_top(const Datacenter& dc, std::size_t pm_type, std::size_t demand,
                Candidate& best);

  /// Fills the score-cache entry of `pm_type`'s dense slot `slot` for the
  /// live bucket with key `key`: one memo probe, then one score read per
  /// demand. Sweeps visit slots in dense order, so a new slot is always the
  /// next one.
  void refill(std::size_t pm_type, std::size_t slot, ProfileKey key);

  /// The offset in memo_[pm_type].words of profile `key`'s entry, worked
  /// out on first sight: word 0 is the profile's node, word 1 + d its best
  /// successor under demand d (ScoreTable::kNoFit when the VM type does not
  /// fit), word 1 + D + d the arena offset of its representative under
  /// demand d (kNoRep until first used).
  std::uint32_t memo_entry(std::size_t pm_type, ProfileKey key);

  /// Adds the change of the memos' allocated bytes to prvm_engine_memo_bytes.
  void account_memo_bytes();

  /// A placement of `vm` on PM `i` realizing the best successor: the memo
  /// entry `entry`'s representative (worked out on first use) mapped onto
  /// the PM's concrete dimension permutation. Writes into `out` (reusing
  /// its storage); allocation-free once the representative exists.
  void cached_placement_into(const Datacenter& dc, PmIndex i, const Vm& vm,
                             std::optional<std::uint32_t> entry, DemandPlacement& out);

  std::shared_ptr<const ScoreTableSet> tables_;
  PageRankVmOptions options_;
  Rng rng_;

  /// Metrics resolved once at construction (options_.metrics or the global
  /// registry). Updating through the pointers is lock-free.
  struct Metrics {
    obs::Counter* place_calls = nullptr;     ///< pick() invocations
    obs::Counter* linear_scored = nullptr;   ///< PMs scored by the legacy scan
    obs::Counter* score_lookups = nullptr;   ///< table lookups (indexed: cache refills)
    obs::Counter* rep_cache_hits = nullptr;  ///< representatives found in the memo
    obs::Counter* rep_cache_misses = nullptr;  ///< representatives worked out
    obs::Counter* best_fills = nullptr;      ///< profiles entered into the memo
    obs::Gauge* best_memo_entries = nullptr; ///< profiles the memos hold
    obs::Gauge* memo_bytes = nullptr;        ///< bytes the memos allocated
  };
  Metrics m_;
  std::size_t memo_bytes_ = 0;  ///< this engine's share of m_.memo_bytes

  /// The memo of one PM type. Its keys are profiles of that type's table,
  /// so it never holds more entries than the table has nodes.
  struct BestMemo {
    FlatMap64<std::uint32_t> index;  ///< profile key -> offset of its entry
    std::vector<NodeId> words;       ///< entries of 1 + 2 * demand_count() words
    std::vector<std::uint8_t> reps;  ///< representatives: count, (dim, amount)...
  };

  /// One scored live bucket of the constrained scan: the dense slot pins the
  /// bucket without holding a pointer into the (stable during a pick) index.
  struct ScoredBucket {
    float score;
    std::uint32_t pm_type;
    std::uint32_t slot;
  };

  /// The score cache of one PM type, one entry per dense bucket slot. The
  /// tag makes an entry valid for any Datacenter whose slot holds that key,
  /// so one engine may serve several ledgers. Scores are demand-major, so a
  /// sweep for one VM type reads one contiguous row.
  struct TypeCache {
    std::vector<ProfileKey> tags;  ///< key each filled slot was filled for
    std::vector<std::uint32_t> entries;  ///< that key's memo offset
    std::vector<float> scores;     ///< [demand * capacity + slot]
    std::size_t capacity = 0;      ///< slots per row of `scores`
    std::size_t demands = 0;
    bool holds(std::size_t slot, ProfileKey key) const {
      return slot < tags.size() && tags[slot] == key;
    }
  };

  // Scratch and caches for the indexed engine (one engine per thread; these
  // make pick() non-reentrant but allocation-free at steady state).
  std::vector<TypeCache> cache_;  ///< per PM type
  std::vector<BestMemo> memo_;    ///< per PM type, read by both engines
  std::vector<ProfileKey> successor_scratch_;  ///< memo_entry's successor keys
  std::vector<ScoredBucket> scored_;
  std::vector<int> order_scratch_;
  std::vector<int> levels_scratch_;
  DemandPlacement placement_scratch_;
};

}  // namespace prvm
