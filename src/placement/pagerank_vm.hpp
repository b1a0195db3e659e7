// PageRankVM (paper Algorithm 2): the core contribution.
//
// For a given VM, every used PM is scored by the PageRank value of the best
// profile reachable by hosting the VM there (maximum over anti-collocation
// permutations, precomputed in the ScoreTable's best-successor cache); the
// VM goes to the PM with the highest score, with the winning permutation
// materialized into concrete core/disk assignments. If no used PM fits, the
// first unused PM with sufficient resources is activated. The optional
// 2-choice mode (§V-C closing remark) scores two randomly sampled used PMs
// instead of scanning the whole used list.
//
// Two engines implement the scan. The legacy linear engine scores every
// used PM (O(fleet) per VM, the paper's Algorithm 2 as printed). The
// indexed engine (default) exploits that the score depends only on
// (PM type, canonical profile, VM type): per PM type it first probes the
// score table's ranked key list against the live buckets (phase A — a
// handful of hash probes when a top-ranked profile is live), then falls
// back to a contiguous sweep of the datacenter's struct-of-arrays bucket
// index, prefiltered by the branchless residual mask, reading scores
// straight out of the table's demand-major best row (phase B). Both phases
// compute the same maximum; the budget only picks the cheaper path.
// Tie-breaking is pinned to activation order, making the chosen PM
// identical to the linear scan for every VM (asserted by the differential
// test). All per-pick state lives in engine-owned scratch, so steady-state
// picks are allocation-free (asserted by the counting-allocator test).
#pragma once

#include <cstdint>
#include <memory>
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
  /// Ranked-key probes per PM type before the indexed scan falls back to the
  /// contiguous bucket sweep. Decision-invariant (both paths compute the
  /// same answer); exposed for benchmarking only.
  std::uint32_t phase_a_budget = 16;
  /// Registry for the engine's prvm_engine_* counters (score lookups, index
  /// probes, rep-cache hits). Null = obs::Registry::global().
  obs::Registry* metrics = nullptr;
};

class PageRankVm final : public PlacementAlgorithm {
 public:
  explicit PageRankVm(std::shared_ptr<const ScoreTableSet> tables,
                      PageRankVmOptions options = {});

  std::string_view name() const override { return "PageRankVM"; }
  AlgorithmKind kind() const override { return AlgorithmKind::kPageRankVm; }

  std::optional<PmIndex> place(Datacenter& dc, const Vm& vm,
                               const PlacementConstraints& constraints = {}) override;

  /// Score of placing `vm_type` on PM `i` right now: the PageRank value of
  /// the best resulting profile; nullopt when the VM does not fit. Exposed
  /// for tests and for the migration policy.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i,
                                        std::size_t vm_type) const;

  /// As above, but accumulates table lookups into `lookups` instead of
  /// bumping the score-lookup counter itself; the linear-scan hot loop uses
  /// this to flush one batched metric update per scan.
  std::optional<double> placement_score(const Datacenter& dc, PmIndex i, std::size_t vm_type,
                                        std::uint64_t& lookups) const;

  const ScoreTableSet& tables() const { return *tables_; }

 private:
  /// Places `vm` on PM `i` using the permutation whose canonical outcome has
  /// the highest score (via the representative cache when indexing is on).
  void place_best_permutation(Datacenter& dc, PmIndex i, const Vm& vm);

  /// Linear engine: Algorithm 2 as printed (plus 2-choice sampling).
  std::optional<PmIndex> pick_linear(Datacenter& dc, const Vm& vm,
                                     const PlacementConstraints& constraints);

  /// Indexed engine, no constraints: best PM via the profile buckets.
  std::optional<PmIndex> pick_indexed(const Datacenter& dc, std::size_t vm_type);

  /// Indexed engine with exclude/allow constraints (migration re-placement).
  std::optional<PmIndex> pick_indexed_constrained(const Datacenter& dc, std::size_t vm_type,
                                                  const PlacementConstraints& constraints);

  /// Top score of `pm_type`'s live profiles for demand `slot` and the
  /// bucket(s) attaining it; nullopt when no live profile fits the VM.
  /// `need` is the VM's packed resmask demand on this PM type.
  std::optional<double> type_top(const Datacenter& dc, std::size_t pm_type,
                                 const ScoreTable& table, std::size_t slot, std::uint64_t need,
                                 std::vector<Datacenter::BucketView>& out) const;

  /// Lazily builds need_masks_ from the first datacenter seen (an engine
  /// serves one catalog — the score tables are already per-catalog).
  void ensure_masks(const Datacenter& dc);

  /// A placement of `vm` on PM `i` realizing the best successor, computed in
  /// canonical-profile space once per (PM type, profile, VM type) and mapped
  /// onto the PM's concrete dimension permutation. Writes into `out`
  /// (reusing its storage); allocation-free on a rep-cache hit.
  void cached_placement_into(const Datacenter& dc, PmIndex i, const Vm& vm,
                             DemandPlacement& out);

  std::shared_ptr<const ScoreTableSet> tables_;
  PageRankVmOptions options_;
  Rng rng_;

  /// Counters resolved once at construction (options_.metrics or the global
  /// registry). Incrementing through the pointers is lock-free and valid
  /// from const scoring paths — the engine itself is not mutated.
  struct Metrics {
    obs::Counter* place_calls = nullptr;     ///< place() invocations
    obs::Counter* linear_scored = nullptr;   ///< PMs scored by the legacy scan
    obs::Counter* score_lookups = nullptr;   ///< best-successor table lookups
    obs::Counter* index_probes = nullptr;    ///< ranked-key bucket probes (phase A)
    obs::Counter* rep_cache_hits = nullptr;  ///< best-permutation cache hits
    obs::Counter* rep_cache_misses = nullptr;
  };
  Metrics m_;

  /// One scored live bucket of the constrained scan: the dense slot pins the
  /// bucket without holding a pointer into the (stable during a pick) index.
  struct ScoredBucket {
    float score;
    std::uint32_t pm_type;
    std::uint32_t slot;
  };

  // Scratch and caches for the indexed engine (one engine per thread; these
  // make place() non-reentrant but allocation-free at steady state).
  std::vector<Datacenter::BucketView> tied_;
  std::vector<Datacenter::BucketView> type_tied_;
  std::vector<ScoredBucket> scored_;
  std::vector<std::uint64_t> need_masks_;  ///< [pm_type * vm_types + vm_type]
  std::size_t mask_vm_types_ = 0;
  bool masks_ready_ = false;
  std::vector<int> order_scratch_;
  std::vector<int> levels_scratch_;
  DemandPlacement placement_scratch_;
  FlatMap64<std::uint32_t> rep_index_;  // (pm_type, node, slot) -> rep slot
  std::vector<std::vector<std::pair<int, int>>> rep_assignments_;
};

}  // namespace prvm
