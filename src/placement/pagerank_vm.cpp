#include "placement/pagerank_vm.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace prvm {

PageRankVm::PageRankVm(std::shared_ptr<const ScoreTableSet> tables, PageRankVmOptions options)
    : tables_(std::move(tables)), options_(options), rng_(options.seed) {
  PRVM_REQUIRE(tables_ != nullptr, "PageRankVM needs score tables");
  obs::Registry& reg =
      options_.metrics != nullptr ? *options_.metrics : obs::Registry::global();
  m_.place_calls = &reg.counter("prvm_engine_place_total");
  m_.linear_scored = &reg.counter("prvm_engine_linear_scored_total");
  m_.score_lookups = &reg.counter("prvm_engine_score_lookups_total");
  m_.rep_cache_hits = &reg.counter("prvm_engine_rep_cache_hits_total");
  m_.rep_cache_misses = &reg.counter("prvm_engine_rep_cache_misses_total");
  m_.best_fills = &reg.counter("prvm_engine_best_fills_total");
  m_.best_memo_entries = &reg.gauge("prvm_engine_best_memo_entries");
  m_.memo_bytes = &reg.gauge("prvm_engine_memo_bytes");
  cache_.resize(tables_->pm_type_count());
  memo_.resize(tables_->pm_type_count());
  for (std::size_t t = 0; t < cache_.size(); ++t) {
    cache_[t].demands = tables_->table(t).demand_count();
  }
}

std::uint32_t PageRankVm::memo_entry(std::size_t pm_type, ProfileKey key) {
  BestMemo& memo = memo_[pm_type];
  if (const std::uint32_t* at = memo.index.find(key)) return *at;
  const ScoreTable& table = tables_->table(pm_type);
  const std::optional<NodeId> node = table.node_of(key);
  PRVM_REQUIRE(node.has_value(), "profile not present in score table");
  const auto at = static_cast<std::uint32_t>(memo.words.size());
  memo.words.push_back(*node);
  for (std::size_t d = 0; d < table.demand_count(); ++d) {
    memo.words.push_back(table.best_successor(*node, d, successor_scratch_));
  }
  memo.words.insert(memo.words.end(), table.demand_count(), kNoRep);
  memo.index.try_emplace(key, at);
  m_.best_fills->inc();
  m_.best_memo_entries->add(1);
  account_memo_bytes();
  return at;
}

void PageRankVm::account_memo_bytes() {
  std::size_t bytes = 0;
  for (const BestMemo& memo : memo_) {
    bytes += memo.index.bytes() + memo.words.capacity() * sizeof(NodeId) + memo.reps.capacity();
  }
  m_.memo_bytes->add(static_cast<std::int64_t>(bytes) - static_cast<std::int64_t>(memo_bytes_));
  memo_bytes_ = bytes;
}

std::vector<PageRankVm::Representative> PageRankVm::representatives() const {
  std::vector<Representative> out;
  for (std::size_t t = 0; t < memo_.size(); ++t) {
    const BestMemo& memo = memo_[t];
    const ScoreTable& table = tables_->table(t);
    const std::size_t demands = table.demand_count();
    for (std::size_t at = 0; at < memo.words.size(); at += 1 + 2 * demands) {
      for (std::size_t d = 0; d < demands; ++d) {
        const std::uint32_t rep = memo.words[at + 1 + demands + d];
        if (rep == kNoRep) continue;
        Representative r{t, table.key_of(memo.words[at]), d, {}};
        for (std::size_t k = 0; k < memo.reps[rep]; ++k) {
          r.assignments.emplace_back(memo.reps[rep + 1 + 2 * k], memo.reps[rep + 2 + 2 * k]);
        }
        out.push_back(std::move(r));
      }
    }
  }
  return out;
}

std::optional<double> PageRankVm::placement_score(const Datacenter& dc, PmIndex i,
                                                  std::size_t vm_type) {
  std::uint64_t lookups = 0;
  const auto score = placement_score(dc, i, vm_type, lookups);
  m_.score_lookups->add(lookups);
  return score;
}

std::optional<double> PageRankVm::placement_score(const Datacenter& dc, PmIndex i,
                                                  std::size_t vm_type,
                                                  std::uint64_t& lookups) {
  const Datacenter::PmView pm = dc.pm(i);
  const auto slot = tables_->demand_slot(pm.type_index, vm_type);
  if (!slot.has_value()) return std::nullopt;
  // Counted locally and flushed to the metric once per scan: an atomic add
  // per candidate would be measurable at 10k-PM linear-scan sizes.
  ++lookups;
  const BestMemo& memo = memo_[pm.type_index];
  const NodeId successor = memo.words[memo_entry(pm.type_index, pm.canonical_key) + 1 + *slot];
  if (successor == ScoreTable::kNoFit) return std::nullopt;
  return static_cast<double>(tables_->table(pm.type_index).node_score(successor));
}

void PageRankVm::cached_placement_into(const Datacenter& dc, PmIndex i, const Vm& vm,
                                       std::optional<std::uint32_t> entry, DemandPlacement& out) {
  const Datacenter::PmView pm = dc.pm(i);
  const ProfileShape& shape = dc.shape_of(i);
  const ScoreTable& table = tables_->table(pm.type_index);
  const auto slot = tables_->demand_slot(pm.type_index, vm.type_index);
  PRVM_CHECK(slot.has_value(), "placing a VM type that never fits this PM type");
  if (!entry.has_value()) entry = memo_entry(pm.type_index, pm.canonical_key);
  BestMemo& memo = memo_[pm.type_index];
  std::uint32_t& rep = memo.words[*entry + 1 + table.demand_count() + *slot];

  // One representative per (PM type, canonical profile, VM type): the first
  // enumerated canonical-space placement whose outcome is the best
  // successor. Worked out on first use, then reused for every PM that passes
  // through this profile.
  (rep == kNoRep ? m_.rep_cache_misses : m_.rep_cache_hits)->inc();
  if (rep == kNoRep) {
    const NodeId successor = memo.words[*entry + 1 + *slot];
    PRVM_CHECK(successor != ScoreTable::kNoFit, "placing a VM that does not fit");
    const ProfileKey best = table.key_of(successor);
    const Profile canonical = Profile::unpack(shape, pm.canonical_key);
    const auto options = enumerate_placements(shape, canonical, table.demands()[*slot]);
    const auto it = std::find_if(options.begin(), options.end(), [&](const DemandPlacement& p) {
      return p.result.canonical(shape).pack(shape) == best;
    });
    PRVM_CHECK(it != options.end(), "winning permutation not found among placements");
    // Bytes suffice: the ledger holds dims below 64 and capacities up to 255.
    rep = static_cast<std::uint32_t>(memo.reps.size());
    memo.reps.push_back(static_cast<std::uint8_t>(it->assignments.size()));
    for (const auto& [dim, amount] : it->assignments) {
      memo.reps.push_back(static_cast<std::uint8_t>(dim));
      memo.reps.push_back(static_cast<std::uint8_t>(amount));
    }
    account_memo_bytes();
  }
  const std::uint8_t* items = memo.reps.data() + rep + 1;
  const std::size_t item_count = memo.reps[rep];

  // The representative speaks canonical coordinates (levels sorted descending
  // per group); this PM's concrete dims are some permutation of that. Map the
  // p-th canonical dim of each group to the concrete dim holding the p-th
  // largest level — same level, same capacity, so the mapped assignment is
  // valid and its canonical outcome is exactly the best successor.
  order_scratch_.resize(static_cast<std::size_t>(shape.total_dims()));
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    const int count = shape.groups()[g].count;
    const auto begin = order_scratch_.begin() + off;
    std::iota(begin, begin + count, 0);
    std::sort(begin, begin + count, [&](int a, int b) {
      const int la = pm.usage.level(off + a);
      const int lb = pm.usage.level(off + b);
      if (la != lb) return la > lb;
      return a < b;
    });
  }
  out.assignments.clear();
  out.assignments.reserve(item_count);
  levels_scratch_.assign(pm.usage.levels().begin(), pm.usage.levels().end());
  for (std::size_t k = 0; k < item_count; ++k) {
    const int dim = items[2 * k];
    const int amount = items[2 * k + 1];
    std::size_t g = 0;
    while (g + 1 < shape.group_count() && shape.group_offset(g + 1) <= dim) ++g;
    const int off = shape.group_offset(g);
    const int mapped = off + order_scratch_[static_cast<std::size_t>(dim)];
    out.assignments.emplace_back(mapped, amount);
    levels_scratch_[static_cast<std::size_t>(mapped)] += amount;
  }
  out.result.assign_levels(shape, levels_scratch_);
}

PageRankVm::Pick PageRankVm::best_permutation(const Datacenter& dc, PmIndex i, const Vm& vm,
                                              std::optional<std::uint32_t> entry) {
  if (options_.use_index) {
    cached_placement_into(dc, i, vm, entry, placement_scratch_);
    return Pick{i, placement_scratch_.assignments};
  }
  const Datacenter::PmView pm = dc.pm(i);
  const ProfileShape& shape = dc.shape_of(i);
  const auto slot = tables_->demand_slot(pm.type_index, vm.type_index);
  PRVM_CHECK(slot.has_value(), "placing a VM type that never fits this PM type");
  const NodeId successor =
      memo_[pm.type_index].words[memo_entry(pm.type_index, pm.canonical_key) + 1 + *slot];
  PRVM_CHECK(successor != ScoreTable::kNoFit, "placing a VM that does not fit");
  const ProfileKey best = tables_->table(pm.type_index).key_of(successor);

  // Materialize a concrete assignment whose canonical outcome matches the
  // winning profile. The enumeration is permutation-invariant, so a match
  // always exists.
  auto options = dc.placements(i, vm.type_index);
  const auto it = std::find_if(options.begin(), options.end(), [&](const DemandPlacement& p) {
    return p.result.canonical(shape).pack(shape) == best;
  });
  PRVM_CHECK(it != options.end(), "winning permutation not found among placements");
  placement_scratch_ = std::move(*it);
  return Pick{i, placement_scratch_.assignments};
}

std::optional<PmIndex> PageRankVm::pick_linear(const Datacenter& dc, const Vm& vm,
                                               const PlacementConstraints& constraints) {
  // Candidate used PMs: all of them, or two sampled ones in 2-choice mode.
  std::vector<PmIndex> candidates;
  for (PmIndex i : dc.used_pms()) {
    if (constraints.allowed(dc, i)) candidates.push_back(i);
  }
  if (options_.two_choice) {
    // "Two PMs are randomly selected and then the best one is selected"
    // (§V-C). Sampling is over the used PMs that can host the VM — a PM
    // with no room is not a choice — so 2-choice trades only scoring
    // effort, not admission.
    std::vector<PmIndex> fitting;
    for (PmIndex i : candidates) {
      if (dc.fits(i, vm.type_index)) fitting.push_back(i);
    }
    candidates = std::move(fitting);
    if (candidates.size() > 2) {
      const std::size_t a = rng_.uniform_index(candidates.size());
      std::size_t b = rng_.uniform_index(candidates.size() - 1);
      if (b >= a) ++b;
      candidates = {candidates[a], candidates[b]};
    }
  }

  // Algorithm 2 lines 2-13: the used PM giving the highest-scoring profile.
  std::optional<PmIndex> best_pm;
  double max_score = 0.0;
  std::uint64_t lookups = 0;
  m_.linear_scored->add(candidates.size());
  for (PmIndex i : candidates) {
    const auto score = placement_score(dc, i, vm.type_index, lookups);
    if (!score.has_value()) continue;
    if (!best_pm.has_value() || *score > max_score) {
      max_score = *score;
      best_pm = i;
    }
  }
  m_.score_lookups->add(lookups);
  return best_pm;
}

void PageRankVm::refill(std::size_t pm_type, std::size_t slot, ProfileKey key) {
  const std::uint32_t at = memo_entry(pm_type, key);  // throws before the cache changes
  TypeCache& cache = cache_[pm_type];
  if (slot == cache.tags.size()) {
    cache.tags.push_back(key);
    cache.entries.push_back(0);
    if (slot == cache.capacity) {
      // Re-lay the demand rows out at twice the width.
      const std::size_t capacity = std::max<std::size_t>(64, 2 * cache.capacity);
      std::vector<float> scores(cache.demands * capacity);
      for (std::size_t d = 0; d < cache.demands; ++d) {
        std::copy_n(cache.scores.data() + d * cache.capacity, cache.capacity,
                    scores.data() + d * capacity);
      }
      cache.scores = std::move(scores);
      cache.capacity = capacity;
    }
  }
  PRVM_CHECK(slot < cache.tags.size(), "score cache slots must be filled in dense order");
  const ScoreTable& table = tables_->table(pm_type);
  cache.tags[slot] = key;
  cache.entries[slot] = at;
  const NodeId* entry = memo_[pm_type].words.data() + at;
  for (std::size_t d = 0; d < cache.demands; ++d) {
    const NodeId successor = entry[1 + d];
    cache.scores[d * cache.capacity + slot] =
        successor == ScoreTable::kNoFit ? kNoFitScore : table.node_score(successor);
  }
  m_.score_lookups->inc();
}

void PageRankVm::type_top(const Datacenter& dc, std::size_t pm_type, std::size_t demand,
                          Candidate& best) {
  const std::span<const ProfileKey> keys = dc.bucket_keys(pm_type);
  const std::span<const Datacenter::Earliest> earliest = dc.bucket_earliest(pm_type);
  TypeCache& cache = cache_[pm_type];
  const float* row = cache.scores.data() + demand * cache.capacity;
  for (std::size_t s = 0; s < keys.size(); ++s) {
    if (!cache.holds(s, keys[s])) {
      refill(pm_type, s, keys[s]);
      row = cache.scores.data() + demand * cache.capacity;
    }
    const float score = row[s];
    if (score == kNoFitScore || score < best.score) continue;
    if (score > best.score || earliest[s].seq < best.seq) {
      best = Candidate{score, earliest[s].seq, earliest[s].pm, cache.entries[s]};
    }
  }
}

PageRankVm::Candidate PageRankVm::pick_indexed(const Datacenter& dc, std::size_t vm_type) {
  // The linear scan keeps the first maximal candidate in used order: the
  // highest score, then the smallest activation sequence — which within a
  // bucket is its earliest member.
  Candidate best;
  for (std::size_t t = 0; t < dc.catalog().pm_types().size(); ++t) {
    if (dc.used_count_of_type(t) == 0) continue;
    const auto slot = tables_->demand_slot(t, vm_type);
    if (!slot.has_value()) continue;
    type_top(dc, t, *slot, best);
  }
  return best;
}

std::optional<PmIndex> PageRankVm::pick_indexed_constrained(
    const Datacenter& dc, std::size_t vm_type, const PlacementConstraints& constraints) {
  // Migration-time path: score every distinct live profile, then pop the
  // score groups off a max-heap, highest first, until one holds an allowed
  // PM; the groups below it are never ordered.
  scored_.clear();
  for (std::size_t t = 0; t < dc.catalog().pm_types().size(); ++t) {
    if (dc.used_count_of_type(t) == 0) continue;
    const auto slot = tables_->demand_slot(t, vm_type);
    if (!slot.has_value()) continue;
    const std::span<const ProfileKey> keys = dc.bucket_keys(t);
    TypeCache& cache = cache_[t];
    for (std::size_t s = 0; s < keys.size(); ++s) {
      if (!cache.holds(s, keys[s])) refill(t, s, keys[s]);
      const float score = cache.scores[*slot * cache.capacity + s];
      if (score == kNoFitScore) continue;
      scored_.push_back(ScoredBucket{score, static_cast<std::uint32_t>(t),
                                     static_cast<std::uint32_t>(s)});
    }
  }
  const auto lower = [](const ScoredBucket& a, const ScoredBucket& b) { return a.score < b.score; };
  std::make_heap(scored_.begin(), scored_.end(), lower);
  for (auto end = scored_.end(); end != scored_.begin();) {
    const float score = scored_.front().score;
    PmIndex winner = Datacenter::kNoPm;
    std::uint64_t winner_seq = 0;
    while (end != scored_.begin() && scored_.front().score == score) {
      std::pop_heap(scored_.begin(), end, lower);
      --end;
      for (const PmIndex pm : dc.bucket_at(end->pm_type, end->slot)) {
        if (!constraints.allowed(dc, pm)) continue;
        const std::uint64_t seq = dc.activation_seq(pm);
        if (winner == Datacenter::kNoPm || seq < winner_seq) {
          winner = pm;
          winner_seq = seq;
        }
      }
    }
    if (winner != Datacenter::kNoPm) return winner;
  }
  return std::nullopt;
}

std::optional<PageRankVm::Pick> PageRankVm::pick(const Datacenter& dc, const Vm& vm,
                                                  const PlacementConstraints& constraints) {
  m_.place_calls->inc();
  std::optional<PmIndex> best_pm;
  if (!options_.use_index || options_.two_choice) {
    // 2-choice must sample with the exact RNG stream of the linear engine,
    // so it shares the linear candidate path even when indexing is on.
    best_pm = pick_linear(dc, vm, constraints);
  } else if (!constraints.exclude.has_value() && !constraints.allow) {
    const Candidate best = pick_indexed(dc, vm.type_index);
    if (best.pm != Datacenter::kNoPm) return best_permutation(dc, best.pm, vm, best.entry);
  } else {
    best_pm = pick_indexed_constrained(dc, vm.type_index, constraints);
  }
  if (best_pm.has_value()) return best_permutation(dc, *best_pm, vm);

  // Lines 17-24: first unused PM with sufficient resources, off the
  // incrementally-maintained free list.
  for (auto i = dc.next_unused(0); i.has_value(); i = dc.next_unused(*i + 1)) {
    if (!constraints.allowed(dc, *i)) continue;
    if (!dc.fits(*i, vm.type_index)) continue;
    return best_permutation(dc, *i, vm);
  }
  return std::nullopt;
}

std::optional<PmIndex> PageRankVm::place(Datacenter& dc, const Vm& vm,
                                         const PlacementConstraints& constraints) {
  const std::optional<Pick> choice = pick(dc, vm, constraints);
  if (!choice.has_value()) return std::nullopt;
  dc.place(choice->pm, vm, choice->assignments);
  return choice->pm;
}

}  // namespace prvm
