#include "profile/permutation.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace prvm {

int QuantizedDemand::total() const {
  int sum = 0;
  for (const auto& items : group_items)
    sum += std::accumulate(items.begin(), items.end(), 0);
  return sum;
}

void QuantizedDemand::validate(const ProfileShape& shape) const {
  PRVM_REQUIRE(group_items.size() == shape.group_count(),
               "demand group count does not match shape");
  for (std::size_t g = 0; g < group_items.size(); ++g) {
    const auto& items = group_items[g];
    PRVM_REQUIRE(static_cast<int>(items.size()) <= shape.groups()[g].count,
                 "more anti-collocated items than dimensions in group");
    PRVM_REQUIRE(std::is_sorted(items.begin(), items.end(), std::greater<int>()),
                 "demand items must be sorted descending");
    for (int item : items) {
      PRVM_REQUIRE(item >= 1, "demand items must be positive");
      PRVM_REQUIRE(item <= shape.groups()[g].capacity, "demand item exceeds dimension capacity");
    }
  }
}

std::string QuantizedDemand::describe() const {
  std::ostringstream os;
  for (std::size_t g = 0; g < group_items.size(); ++g) {
    if (g) os << " ";
    os << '{';
    for (std::size_t i = 0; i < group_items[g].size(); ++i) {
      if (i) os << ',';
      os << group_items[g][i];
    }
    os << '}';
  }
  return os.str();
}

namespace {

// Depth-first enumeration of injections items -> dims with two symmetry
// prunings: (a) equal consecutive items only take dimensions in increasing
// index order; (b) among the dimensions available for one item, only the
// first of each equal-current-usage run is tried (swapping two equally-used
// dimensions, including everything assigned to them later, yields the same
// canonical outcome). A final map keyed by the canonical outcome guarantees
// distinctness regardless.
void enumerate_group_rec(std::span<const int> items, int capacity, std::vector<int>& usage,
                         std::vector<bool>& used, std::vector<std::pair<int, int>>& picks,
                         std::size_t t,
                         std::map<std::vector<int>, GroupPlacement>& out) {
  if (t == items.size()) {
    std::vector<int> canon = usage;
    std::sort(canon.begin(), canon.end(), std::greater<int>());
    if (!out.contains(canon)) {
      out.emplace(std::move(canon), GroupPlacement{picks, usage});
    }
    return;
  }
  const int item = items[t];
  int start = 0;
  if (t > 0 && items[t - 1] == item) start = picks.back().first + 1;

  // Usage values already tried for this item (dedup (b)). Bounded by the
  // number of dimensions, so a flat vector beats a hash set.
  std::vector<int> tried;
  for (int dim = start; dim < static_cast<int>(usage.size()); ++dim) {
    const auto d = static_cast<std::size_t>(dim);
    if (used[d]) continue;
    if (usage[d] + item > capacity) continue;
    if (std::find(tried.begin(), tried.end(), usage[d]) != tried.end()) continue;
    tried.push_back(usage[d]);

    used[d] = true;
    usage[d] += item;
    picks.emplace_back(dim, item);
    enumerate_group_rec(items, capacity, usage, used, picks, t + 1, out);
    picks.pop_back();
    usage[d] -= item;
    used[d] = false;
  }
}

}  // namespace

std::vector<GroupPlacement> enumerate_group_placements(std::span<const int> usage, int capacity,
                                                       std::span<const int> items) {
  PRVM_REQUIRE(std::is_sorted(items.begin(), items.end(), std::greater<int>()),
               "items must be sorted descending");
  std::vector<int> u(usage.begin(), usage.end());
  if (items.empty()) {
    return {GroupPlacement{{}, std::move(u)}};
  }
  if (items.size() > u.size()) return {};
  std::vector<bool> used(u.size(), false);
  std::vector<std::pair<int, int>> picks;
  picks.reserve(items.size());
  std::map<std::vector<int>, GroupPlacement> out;
  enumerate_group_rec(items, capacity, u, used, picks, 0, out);

  std::vector<GroupPlacement> result;
  result.reserve(out.size());
  for (auto& [key, placement] : out) result.push_back(std::move(placement));
  return result;
}

std::vector<DemandPlacement> enumerate_placements(const ProfileShape& shape,
                                                  const Profile& current,
                                                  const QuantizedDemand& demand) {
  demand.validate(shape);
  // Per-group options.
  std::vector<std::vector<GroupPlacement>> options;
  options.reserve(shape.group_count());
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    const int n = shape.groups()[g].count;
    std::span<const int> usage = current.levels().subspan(static_cast<std::size_t>(off),
                                                          static_cast<std::size_t>(n));
    auto opts =
        enumerate_group_placements(usage, shape.groups()[g].capacity, demand.group_items[g]);
    if (opts.empty()) return {};
    options.push_back(std::move(opts));
  }

  // Cartesian combination across groups.
  std::vector<DemandPlacement> result;
  std::vector<std::size_t> index(options.size(), 0);
  for (;;) {
    DemandPlacement p{{}, Profile::zero(shape)};
    std::vector<int> levels(current.levels().begin(), current.levels().end());
    for (std::size_t g = 0; g < options.size(); ++g) {
      const GroupPlacement& gp = options[g][index[g]];
      const int off = shape.group_offset(g);
      for (auto [dim, amount] : gp.assignments) {
        p.assignments.emplace_back(off + dim, amount);
        levels[static_cast<std::size_t>(off + dim)] += amount;
      }
    }
    p.result = Profile::from_levels(shape, std::move(levels));
    result.push_back(std::move(p));

    // Advance the mixed-radix index.
    std::size_t g = 0;
    while (g < options.size() && ++index[g] == options[g].size()) {
      index[g] = 0;
      ++g;
    }
    if (g == options.size()) break;
  }
  return result;
}

namespace {

// A packed key holds at most 64 dimension levels of at least one bit, so no
// group has more than 64 dimensions and no shape more than 64 groups.
constexpr int kMaxDims = 64;

// Distinct outcomes, summed over the groups of one enumeration, that the
// stack buffer holds. The EC2 catalogs need at most a few dozen.
constexpr std::size_t kStackOutcomes = 1024;

// The DFS of enumerate_group_rec for one group of a canonical profile, on
// fixed arrays. Each leaf's usage, sorted descending, is recorded as a "lex
// code": the levels packed with dimension 0 in the most significant bits,
// so numeric order is the lexicographic order of the sorted usage vectors
// (the order of enumerate_group_placements' map). Codes are kept sorted and
// distinct in a caller-provided buffer; `overflow` is set when it is full.
struct GroupDfs {
  std::span<const int> items;
  int n = 0;
  int capacity = 0;
  int bits = 0;
  // Only the first n entries are used, each set before it is read: the
  // struct is built for every group of every enumeration, and zero-filling
  // all 64 costs about a tenth of the table build.
  int usage[kMaxDims];
  bool used[kMaxDims];
  int pick[kMaxDims];
  ProfileKey* codes = nullptr;
  std::size_t size = 0;
  std::size_t room = 0;
  bool overflow = false;

  void run(std::size_t t) {
    if (overflow) return;
    if (t == items.size()) {
      record();
      return;
    }
    const int item = items[t];
    const int start = (t > 0 && items[t - 1] == item) ? pick[t - 1] + 1 : 0;
    int tried[kMaxDims];  // usage values already tried for this item
    int tried_count = 0;
    for (int d = start; d < n; ++d) {
      if (used[d] || usage[d] + item > capacity) continue;
      if (std::find(tried, tried + tried_count, usage[d]) != tried + tried_count) continue;
      tried[tried_count++] = usage[d];
      used[d] = true;
      usage[d] += item;
      pick[t] = d;
      run(t + 1);
      usage[d] -= item;
      used[d] = false;
    }
  }

  void record() {
    int sorted[kMaxDims];
    std::copy(usage, usage + n, sorted);
    std::sort(sorted, sorted + n, std::greater<int>());
    ProfileKey code = 0;
    for (int i = 0; i < n; ++i) code = (code << bits) | static_cast<ProfileKey>(sorted[i]);
    ProfileKey* end = codes + size;
    ProfileKey* at = std::lower_bound(codes, end, code);
    if (at != end && *at == code) return;
    if (size == room) {
      overflow = true;
      return;
    }
    std::copy_backward(at, end, end + 1);
    *at = code;
    ++size;
  }
};

// The bits that hold group g's levels, shifted down to bit 0.
ProfileKey group_mask(const ProfileShape& shape, std::size_t g) {
  const int width = shape.groups()[g].count * shape.group_bits(g);
  return width >= 64 ? ~ProfileKey{0} : (ProfileKey{1} << width) - 1;
}

bool has_stray_bits(const ProfileShape& shape, ProfileKey key) {
  return shape.key_bits() < 64 && (key >> shape.key_bits()) != 0;
}

// Decodes the levels of group g (its bits start at `shift`) into `usage`;
// throws unless they are within capacity and descending.
void decode_group(const ProfileShape& shape, std::size_t g, int shift, ProfileKey key,
                  int* usage) {
  const int bits = shape.group_bits(g);
  const ProfileKey mask = (ProfileKey{1} << bits) - 1;
  for (int i = 0; i < shape.groups()[g].count; ++i) {
    usage[i] = static_cast<int>((key >> (shift + i * bits)) & mask);
    PRVM_REQUIRE(usage[i] <= shape.groups()[g].capacity && (i == 0 || usage[i - 1] >= usage[i]),
                 "successor enumeration needs a canonical profile key");
  }
}

constexpr std::size_t kOverflow = SIZE_MAX;

// Runs the DFS on group g of the canonical profile `key` and writes the
// group's distinct outcomes to `parts`, each as its bits of the packed
// successor key, in the order of enumerate_successor_keys. Returns their
// count, or kOverflow when `parts` is too small.
std::size_t group_parts(const ProfileShape& shape, std::size_t g, int shift, ProfileKey key,
                        std::span<const int> items, std::span<ProfileKey> parts) {
  GroupDfs dfs;
  dfs.items = items;
  dfs.n = shape.groups()[g].count;
  dfs.capacity = shape.groups()[g].capacity;
  dfs.bits = shape.group_bits(g);
  decode_group(shape, g, shift, key, dfs.usage);
  std::fill(dfs.used, dfs.used + dfs.n, false);
  dfs.codes = parts.data();
  dfs.room = parts.size();
  dfs.run(0);
  if (dfs.overflow) return kOverflow;
  const ProfileKey mask = (ProfileKey{1} << dfs.bits) - 1;
  for (std::size_t c = 0; c < dfs.size; ++c) {
    const ProfileKey code = dfs.codes[c];
    ProfileKey part = 0;
    for (int i = 0; i < dfs.n; ++i) {
      const ProfileKey level = (code >> ((dfs.n - 1 - i) * dfs.bits)) & mask;
      part |= level << (shift + i * dfs.bits);
    }
    dfs.codes[c] = part;
  }
  return dfs.size;
}

// Fills `parts` with every group's distinct outcomes, group g's in
// [begin[g], end[g]). False when `parts` is too small.
bool collect_group_parts(const ProfileShape& shape, ProfileKey current,
                         const QuantizedDemand& demand, std::span<ProfileKey> parts,
                         std::size_t* begin, std::size_t* end) {
  std::size_t filled = 0;
  int shift = 0;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const std::size_t size =
        group_parts(shape, g, shift, current, demand.group_items[g], parts.subspan(filled));
    if (size == kOverflow) return false;
    begin[g] = filled;
    filled += size;
    end[g] = filled;
    shift += shape.groups()[g].count * shape.group_bits(g);
  }
  PRVM_REQUIRE(!has_stray_bits(shape, current), "key has stray high bits for this shape");
  return true;
}

// The mixed-radix product of the groups' parts, group 0 varying fastest;
// group g's parts are parts[begin[g], end[g]). Parts of different groups
// occupy disjoint bits, so a successor key is the OR of one part per group
// and distinct choices give distinct keys.
void emit_product(const ProfileKey* parts, const std::size_t* begin, const std::size_t* end,
                  std::size_t groups, std::vector<ProfileKey>& out) {
  std::size_t index[kMaxDims];
  for (std::size_t g = 0; g < groups; ++g) {
    if (begin[g] == end[g]) return;  // this group cannot take its items
    index[g] = begin[g];
  }
  for (;;) {
    ProfileKey key = 0;
    for (std::size_t g = 0; g < groups; ++g) key |= parts[index[g]];
    out.push_back(key);
    std::size_t g = 0;
    while (g < groups && ++index[g] == end[g]) {
      index[g] = begin[g];
      ++g;
    }
    if (g == groups) return;
  }
}

}  // namespace

void enumerate_successor_keys(const ProfileShape& shape, ProfileKey current,
                              const QuantizedDemand& demand, std::vector<ProfileKey>& out) {
  demand.validate(shape);
  std::size_t begin[kMaxDims];
  std::size_t end[kMaxDims];
  ProfileKey stack[kStackOutcomes];  // written by collect_group_parts before any read
  if (collect_group_parts(shape, current, demand, stack, begin, end)) {
    emit_product(stack, begin, end, shape.group_count(), out);
    return;
  }
  std::vector<ProfileKey> heap(kStackOutcomes);
  do {
    heap.resize(heap.size() * 4);
  } while (!collect_group_parts(shape, current, demand, heap, begin, end));
  emit_product(heap.data(), begin, end, shape.group_count(), out);
}

SuccessorMemo::SuccessorMemo(const ProfileShape& shape) : shape_(shape) {
  int shift = 0;
  for (std::size_t g = 0; g < shape_.group_count(); ++g) {
    groups_.push_back(Group{shift, group_mask(shape_, g), {}});
    shift += shape_.groups()[g].count * shape_.group_bits(g);
  }
}

void SuccessorMemo::fill(ProfileKey key, std::span<const QuantizedDemand> demands,
                         std::size_t first) {
  PRVM_REQUIRE(!has_stray_bits(shape_, key), "key has stray high bits for this shape");
  // Every group's state is resolved, and a new one checked, before the memo
  // changes: a non-canonical key leaves no trace.
  const std::size_t groups = groups_.size();
  std::uint32_t id[kMaxDims];
  for (std::size_t g = 0; g < groups; ++g) {
    if (const std::uint32_t* known = find_state(g, key)) {
      id[g] = *known;
    } else {
      int usage[kMaxDims];
      decode_group(shape_, g, groups_[g].shift, key, usage);
      id[g] = kUnfilled;
    }
  }
  for (std::size_t g = 0; g < groups; ++g) {
    if (id[g] != kUnfilled) continue;
    PRVM_CHECK(state_count_ < kUnfilled, "successor memo state ids exhausted");
    id[g] = static_cast<std::uint32_t>(state_count_++);
    groups_[g].states.try_emplace(state_of(g, key), id[g]);
    for (std::vector<Range>& row : ranges_) row.emplace_back();
  }
  if (ranges_.size() < demands.size()) {
    ranges_.resize(demands.size(), std::vector<Range>(state_count_));
  }

  ProfileKey stack[kStackOutcomes];
  std::vector<ProfileKey> heap;
  for (std::size_t t = first; t < demands.size(); ++t) {
    // Past a group that cannot take its items there is no successor, and
    // append_successors stops reading there too.
    for (std::size_t g = 0; g < groups; ++g) {
      Range& range = ranges_[t][id[g]];
      if (range.begin != kUnfilled) {
        if (range.begin == range.end) break;
        continue;
      }
      const std::span<const int> items = demands[t].group_items[g];
      std::span<ProfileKey> buffer = stack;
      std::size_t size = group_parts(shape_, g, groups_[g].shift, key, items, buffer);
      while (size == kOverflow) {
        heap.resize(std::max(heap.size(), kStackOutcomes) * 4);
        buffer = heap;
        size = group_parts(shape_, g, groups_[g].shift, key, items, buffer);
      }
      PRVM_CHECK(parts_.size() + size < kUnfilled, "successor memo outgrew its ranges");
      range.begin = static_cast<std::uint32_t>(parts_.size());
      parts_.insert(parts_.end(), buffer.data(), buffer.data() + size);
      range.end = static_cast<std::uint32_t>(parts_.size());
      ++group_runs_;
      if (size == 0) break;
    }
  }
}

bool SuccessorMemo::filled(ProfileKey key, std::size_t first, std::size_t count) const {
  if (has_stray_bits(shape_, key) || count > ranges_.size()) return false;
  std::uint32_t id[kMaxDims];
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::uint32_t* known = find_state(g, key);
    if (known == nullptr) return false;
    id[g] = *known;
  }
  for (std::size_t t = first; t < count; ++t) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const Range& range = ranges_[t][id[g]];
      if (range.begin == kUnfilled) return false;
      if (range.begin == range.end) break;  // fill() stops here too
    }
  }
  return true;
}

void SuccessorMemo::append_successors(ProfileKey key, std::size_t first, std::size_t last,
                                      std::vector<ProfileKey>& out) const {
  PRVM_REQUIRE(!has_stray_bits(shape_, key), "key has stray high bits for this shape");
  PRVM_REQUIRE(last <= ranges_.size(), "successor memo has no such demand");
  const std::size_t groups = groups_.size();
  std::uint32_t id[kMaxDims];
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t* known = find_state(g, key);
    PRVM_REQUIRE(known != nullptr, "successor memo was not filled for this profile");
    id[g] = *known;
  }
  std::size_t begin[kMaxDims];
  std::size_t end[kMaxDims];
  for (std::size_t t = first; t < last; ++t) {
    bool fits = true;
    for (std::size_t g = 0; g < groups && fits; ++g) {
      const Range& range = ranges_[t][id[g]];
      PRVM_REQUIRE(range.begin != kUnfilled,
                   "successor memo was not filled for this profile and demand");
      begin[g] = range.begin;
      end[g] = range.end;
      fits = range.begin != range.end;  // else this group cannot take its items
    }
    if (fits) emit_product(parts_.data(), begin, end, groups, out);
  }
}

bool demand_fits(const ProfileShape& shape, std::span<const int> levels,
                 const QuantizedDemand& demand) {
  demand.validate(shape);
  // Groups are independent, and within one group the greedy matching
  // "largest item onto the freest dimension" is feasibility-optimal (simple
  // exchange argument), so no enumeration is needed here.
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const auto& items = demand.group_items[g];
    if (items.empty()) continue;
    const int off = shape.group_offset(g);
    const int n = shape.groups()[g].count;
    if (static_cast<int>(items.size()) > n) return false;
    // Stack buffer: this predicate sits on the engine's activation fallback
    // and must stay heap-free (see prvm_alloc_tests). A profile key packs at
    // most 64 dimension levels, so 64 ints always suffice.
    PRVM_CHECK(n <= 64, "dimension group wider than a profile key");
    int free[64];
    for (int i = 0; i < n; ++i) {
      free[i] = shape.groups()[g].capacity - levels[static_cast<std::size_t>(off + i)];
    }
    std::sort(free, free + n, std::greater<int>());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i] > free[i]) return false;
    }
  }
  return true;
}

}  // namespace prvm
