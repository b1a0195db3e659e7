#include "cluster/datacenter.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>

#include "common/byte_writer.hpp"
#include "common/check.hpp"

namespace prvm {

Datacenter::Datacenter(Catalog catalog, std::vector<std::size_t> pm_types_of)
    : catalog_(std::move(catalog)) {
  PRVM_REQUIRE(!pm_types_of.empty(), "datacenter needs at least one PM");
  PRVM_REQUIRE(pm_types_of.size() < kNoSlot, "too many PMs");
  // Row widths: the widest PM shape for levels, the most demand items of any
  // (PM type, VM type) pair for assignments. Pool size: every VM takes at
  // least the smallest demand's total levels, so a PM never holds more VMs
  // than its total capacity over that.
  std::vector<std::size_t> max_vms(catalog_.pm_types().size(), 0);
  for (std::size_t p = 0; p < catalog_.pm_types().size(); ++p) {
    const ProfileShape& shape = catalog_.shape(p);
    for (int d = 0; d < shape.total_dims(); ++d) {
      PRVM_REQUIRE(shape.dim_capacity(d) <= 0xFF,
                   "a dimension capacity exceeds the 255 levels an assignment item holds");
    }
    level_stride_ = std::max<std::size_t>(level_stride_, shape.total_dims());
    int smallest = 0;
    for (std::size_t v = 0; v < catalog_.vm_types().size(); ++v) {
      const auto& demand = catalog_.demand(p, v);
      if (!demand.has_value()) continue;
      std::size_t items = 0;
      for (const auto& group : demand->group_items) items += group.size();
      slot_stride_ = std::max(slot_stride_, items);
      if (smallest == 0 || demand->total() < smallest) smallest = demand->total();
    }
    if (smallest > 0) max_vms[p] = static_cast<std::size_t>(shape.total_capacity() / smallest);
  }
  std::size_t max_fleet_vms = 0;
  pms_.reserve(pm_types_of.size());
  for (std::size_t type : pm_types_of) {
    PRVM_REQUIRE(type < catalog_.pm_types().size(), "PM type index out of range");
    PmRecord pm;
    pm.type = static_cast<std::uint32_t>(type);
    pms_.push_back(pm);
    max_fleet_vms += max_vms[type];
  }
  // Reserving the pool for the fleet at its densest means filling it never
  // reallocates: no copy stall mid-fill and no freed old copy left resident
  // in the heap. Capacity never touched costs address space, not memory.
  slots_.reserve(max_fleet_vms);
  arena_.reserve(max_fleet_vms * slot_stride_);
  levels_.assign(pms_.size() * level_stride_, 0);
  removed_.reserve(slot_stride_);
  index_.resize(catalog_.pm_types().size());
  next_in_bucket_.assign(pms_.size(), kNoLink);
  prev_in_bucket_.assign(pms_.size(), kNoLink);
  activation_seq_.assign(pms_.size(), 0);
  unused_bits_.assign((pms_.size() + 63) / 64, ~std::uint64_t{0});
}

Datacenter::PmView Datacenter::pm(PmIndex i) const {
  const PmRecord& rec = pms_.at(i);
  PmView view;
  view.type_index = rec.type;
  view.usage = ProfileView(levels_of(i));
  view.canonical_key = rec.canonical_key;
  view.vms.pool_ = {slots_, arena_, slot_stride_};
  view.vms.first_ = rec.first;
  view.vms.last_ = rec.last;
  view.vms.size_ = rec.vm_count;
  return view;
}

std::vector<PmIndex> Datacenter::unused_pms() const {
  std::vector<PmIndex> result;
  result.reserve(pms_.size() - used_order_.size());
  for (auto i = next_unused(0); i.has_value(); i = next_unused(*i + 1)) {
    result.push_back(*i);
  }
  return result;
}

std::optional<PmIndex> Datacenter::next_unused(PmIndex from) const {
  for (std::size_t w = from / 64; w < unused_bits_.size(); ++w) {
    std::uint64_t word = unused_bits_[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word == 0) continue;
    const PmIndex i = w * 64 + static_cast<PmIndex>(std::countr_zero(word));
    if (i >= pms_.size()) break;  // padding bits of the last word
    return i;
  }
  return std::nullopt;
}

Datacenter::BucketView Datacenter::used_bucket(std::size_t pm_type, ProfileKey key) const {
  const TypeIndex& ti = index_.at(pm_type);
  const std::uint32_t* slot = ti.slot_of.find(key);
  if (slot == nullptr || *slot == kNoBucket) return BucketView{};
  return BucketView{ti.heads[*slot], ti.counts[*slot], next_in_bucket_.data()};
}

bool Datacenter::fits(PmIndex i, std::size_t vm_type) const {
  const std::size_t type = pms_.at(i).type;
  const auto& demand = catalog_.demand(type, vm_type);
  if (!demand.has_value()) return false;
  const std::span<const std::uint8_t> row = levels_of(i);
  int levels[64];
  std::copy(row.begin(), row.end(), levels);
  return demand_fits(catalog_.shape(type), std::span<const int>(levels, row.size()), *demand);
}

std::vector<DemandPlacement> Datacenter::placements(PmIndex i, std::size_t vm_type) const {
  const std::size_t type = pms_.at(i).type;
  const auto& demand = catalog_.demand(type, vm_type);
  if (!demand.has_value()) return {};
  const ProfileShape& shape = catalog_.shape(type);
  const std::span<const std::uint8_t> levels = levels_of(i);
  return enumerate_placements(shape, Profile::from_levels(shape, {levels.begin(), levels.end()}),
                              *demand);
}

void Datacenter::add_to_bucket(PmIndex i) {
  TypeIndex& ti = index_[pms_[i].type];
  auto [slot, inserted] = ti.slot_of.try_emplace(pms_[i].canonical_key, kNoBucket);
  if (slot == kNoBucket) {
    slot = static_cast<std::uint32_t>(ti.keys.size());
    ti.keys.push_back(pms_[i].canonical_key);
    ti.heads.push_back(kNoLink);
    ti.counts.push_back(0);
    ti.earliest.push_back(Earliest{activation_seq_[i], i});
  }
  const std::uint32_t head = ti.heads[slot];
  const auto link = static_cast<std::uint32_t>(i);
  next_in_bucket_[i] = head;
  prev_in_bucket_[i] = kNoLink;
  if (head != kNoLink) prev_in_bucket_[head] = link;
  ti.heads[slot] = link;
  ++ti.counts[slot];
  if (activation_seq_[i] < ti.earliest[slot].seq) {
    ti.earliest[slot] = Earliest{activation_seq_[i], i};
  }
}

void Datacenter::refresh_earliest(TypeIndex& ti, std::uint32_t slot) {
  Earliest first{~std::uint64_t{0}, kNoPm};
  for (std::uint32_t m = ti.heads[slot]; m != kNoLink; m = next_in_bucket_[m]) {
    if (activation_seq_[m] < first.seq) first = Earliest{activation_seq_[m], m};
  }
  ti.earliest[slot] = first;
}

void Datacenter::remove_from_bucket(PmIndex i) {
  // Must run before canonical_key is updated: the key locates the bucket.
  TypeIndex& ti = index_[pms_[i].type];
  std::uint32_t* slot = ti.slot_of.find(pms_[i].canonical_key);
  PRVM_CHECK(slot != nullptr && *slot != kNoBucket, "bucket index out of sync");
  const std::uint32_t prev = prev_in_bucket_[i];
  const std::uint32_t next = next_in_bucket_[i];
  if (prev != kNoLink) {
    next_in_bucket_[prev] = next;
  } else {
    PRVM_CHECK(ti.heads[*slot] == i, "bucket head out of sync");
    ti.heads[*slot] = next;
  }
  if (next != kNoLink) prev_in_bucket_[next] = prev;
  next_in_bucket_[i] = kNoLink;
  prev_in_bucket_[i] = kNoLink;
  PRVM_CHECK(ti.counts[*slot] > 0, "bucket count out of sync");
  if (--ti.counts[*slot] > 0) {
    if (ti.earliest[*slot].pm == i) refresh_earliest(ti, *slot);
    return;
  }

  // Swap-erase the dead bucket out of the dense arrays, keeping the key map
  // pointed at the moved bucket's new slot.
  const std::uint32_t last = static_cast<std::uint32_t>(ti.keys.size() - 1);
  const ProfileKey dead_key = ti.keys[*slot];
  if (*slot != last) {
    ti.keys[*slot] = ti.keys[last];
    ti.heads[*slot] = ti.heads[last];
    ti.counts[*slot] = ti.counts[last];
    ti.earliest[*slot] = ti.earliest[last];
    std::uint32_t* moved = ti.slot_of.find(ti.keys[*slot]);
    PRVM_CHECK(moved != nullptr, "bucket index out of sync");
    *moved = *slot;
  }
  ti.keys.pop_back();
  ti.heads.pop_back();
  ti.counts.pop_back();
  ti.earliest.pop_back();
  *ti.slot_of.find(dead_key) = kNoBucket;
}

void Datacenter::mark_used(PmIndex i) {
  activation_seq_[i] = next_activation_++;
  used_order_.push_back(i);
  unused_bits_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  ++index_[pms_[i].type].used_count;
  add_to_bucket(i);
}

void Datacenter::mark_unused(PmIndex i) {
  // used_order_ is sorted by activation sequence, so binary-search it.
  const auto uit = std::lower_bound(
      used_order_.begin(), used_order_.end(), activation_seq_[i],
      [&](PmIndex pm, std::uint64_t seq) { return activation_seq_[pm] < seq; });
  PRVM_CHECK(uit != used_order_.end() && *uit == i, "used list out of sync");
  used_order_.erase(uit);
  unused_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
  --index_[pms_[i].type].used_count;
}

std::uint32_t Datacenter::acquire_slot() {
  if (free_slot_ != kNoSlot) {
    const std::uint32_t s = free_slot_;
    free_slot_ = slots_[s].next;
    return s;
  }
  PRVM_REQUIRE(slots_.size() < slot_of_.kMaxRecords, "VM slot pool full");
  slots_.emplace_back();
  arena_.resize(arena_.size() + slot_stride_);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Datacenter::place(PmIndex i, const Vm& vm,
                       std::span<const std::pair<int, int>> assignments) {
  PRVM_REQUIRE(i < pms_.size(), "PM index out of range");
  PRVM_REQUIRE(slot_of(vm.id) == kNoSlot, "VM already placed");
  PRVM_REQUIRE(vm.type_index < catalog_.vm_types().size(), "VM type out of range");
  PRVM_REQUIRE(assignments.size() <= slot_stride_,
               "placement has more items than any catalog demand");
  const ProfileShape& shape = catalog_.shape(pms_[i].type);
  const std::span<std::uint8_t> row = levels_of(i);

  // Validate on an int copy of the byte levels: each assignment within
  // capacity and anti-collocation (no two assignments of this VM on the same
  // dimension). A profile key packs at most 64 dimensions, so both fit a
  // word / a stack buffer. Capacities fit a byte, so the validated levels
  // store back into the row exactly.
  int levels[64];
  std::copy(row.begin(), row.end(), levels);
  std::uint64_t touched = 0;
  for (auto [dim, amount] : assignments) {
    PRVM_REQUIRE(dim >= 0 && dim < shape.total_dims(), "assignment dimension out of range");
    PRVM_REQUIRE(amount > 0, "assignment amount must be positive");
    const std::uint64_t bit = std::uint64_t{1} << dim;
    PRVM_REQUIRE((touched & bit) == 0,
                 "anti-collocation violated: two items of one VM on one dimension");
    touched |= bit;
    PRVM_REQUIRE(amount <= shape.dim_capacity(dim) - levels[dim],
                 "placement exceeds dimension capacity");
    levels[dim] += amount;
  }

  const std::uint32_t s = acquire_slot();
  PmRecord& pm = pms_[i];
  const bool was_used = pm.vm_count > 0;
  if (was_used) remove_from_bucket(i);
  std::copy_n(levels, row.size(), row.begin());
  pm.canonical_key = pack_canonical(shape, std::span<const int>(levels, row.size()));

  VmSlot& slot = slots_[s];
  slot.id = vm.id;
  slot.type = static_cast<std::uint32_t>(vm.type_index);
  slot.pm = static_cast<std::uint32_t>(i);
  slot.next = kNoSlot;
  slot.prev = pm.last;
  slot.count = static_cast<std::uint32_t>(assignments.size());
  // Validated above: dim < 64 and 0 < amount <= a capacity that fits a byte.
  Item* items = arena_.data() + s * slot_stride_;
  for (auto [dim, amount] : assignments) {
    *items++ = Item{static_cast<std::uint8_t>(dim), static_cast<std::uint8_t>(amount)};
  }
  if (pm.last != kNoSlot) {
    slots_[pm.last].next = s;
  } else {
    pm.first = s;
  }
  pm.last = s;
  ++pm.vm_count;
  slot_of_.insert(s, slot_id());

  if (was_used) {
    add_to_bucket(i);
  } else {
    mark_used(i);
  }
}

void Datacenter::place_first_fit(PmIndex i, const Vm& vm) {
  auto options = placements(i, vm.type_index);
  PRVM_REQUIRE(!options.empty(), "VM does not fit PM");
  place(i, vm, options.front());
}

Datacenter::PlacedVm Datacenter::remove(VmId vm) {
  const std::uint32_t s = slot_of(vm);
  PRVM_REQUIRE(s != kNoSlot, "VM is not placed");
  const VmSlot slot = slots_[s];
  const PmIndex i = slot.pm;
  PmRecord& pm = pms_[i];
  const std::span<std::uint8_t> row = levels_of(i);
  const Assignments assignments = assignments_of(s);

  int levels[64];
  std::copy(row.begin(), row.end(), levels);
  for (auto [dim, amount] : assignments) {
    levels[dim] -= amount;
    PRVM_CHECK(levels[dim] >= 0, "usage underflow on removal");
  }

  remove_from_bucket(i);
  std::copy_n(levels, row.size(), row.begin());
  pm.canonical_key =
      pack_canonical(catalog_.shape(pm.type), std::span<const int>(levels, row.size()));
  if (slot.prev != kNoSlot) {
    slots_[slot.prev].next = slot.next;
  } else {
    pm.first = slot.next;
  }
  if (slot.next != kNoSlot) {
    slots_[slot.next].prev = slot.prev;
  } else {
    pm.last = slot.prev;
  }
  --pm.vm_count;
  removed_.assign(assignments.items_.begin(), assignments.items_.end());
  slot_of_.erase(s, slot_id());
  slots_[s] = VmSlot{};
  slots_[s].next = free_slot_;
  free_slot_ = s;

  if (pm.vm_count > 0) {
    add_to_bucket(i);
  } else {
    mark_unused(i);
  }
  return PlacedVm{Vm{slot.id, slot.type}, Assignments(removed_), slot.sample};
}

std::optional<PmIndex> Datacenter::pm_of(VmId vm) const {
  const std::uint32_t s = slot_of(vm);
  if (s == kNoSlot) return std::nullopt;
  return slots_[s].pm;
}

Datacenter::PlacedVm Datacenter::placed(VmId vm) const {
  const std::uint32_t s = slot_of(vm);
  PRVM_REQUIRE(s != kNoSlot, "VM is not placed");
  return PlacedVm{Vm{slots_[s].id, slots_[s].type}, assignments_of(s), slots_[s].sample};
}

bool Datacenter::set_vm_sample(VmId vm, std::uint64_t sample) {
  const std::uint32_t s = slot_of(vm);
  if (s == kNoSlot) return false;
  slots_[s].sample = sample;
  return true;
}

std::uint64_t Datacenter::vm_sample(VmId vm) const {
  const std::uint32_t s = slot_of(vm);
  return s == kNoSlot ? 0 : slots_[s].sample;
}

void Datacenter::copy_samples_from(const Datacenter& from) {
  for (PmIndex i = 0; i < std::min(pms_.size(), from.pms_.size()); ++i) {
    pms_[i].sample = from.pms_[i].sample;
  }
  slot_of_.for_each([&](std::uint32_t s) { slots_[s].sample = from.vm_sample(slots_[s].id); });
}

void Datacenter::clear() {
  for (PmRecord& pm : pms_) {
    pm.first = kNoSlot;
    pm.last = kNoSlot;
    pm.vm_count = 0;
    pm.canonical_key = 0;  // the empty profile of any shape
    pm.sample = 0;
  }
  std::fill(levels_.begin(), levels_.end(), 0);
  slots_.clear();
  arena_.clear();
  free_slot_ = kNoSlot;
  slot_of_.clear();
  removed_.clear();
  used_order_.clear();
  for (TypeIndex& ti : index_) {
    ti.keys.clear();
    ti.heads.clear();
    ti.counts.clear();
    ti.earliest.clear();
    ti.slot_of.clear();
    ti.used_count = 0;
  }
  next_in_bucket_.assign(pms_.size(), kNoLink);
  prev_in_bucket_.assign(pms_.size(), kNoLink);
  unused_bits_.assign((pms_.size() + 63) / 64, ~std::uint64_t{0});
  next_activation_ = 0;
}

namespace {

// Little-endian fixed-width reads for the snapshot format (ByteWriter::u64
// writes them). The format is consumed on the machine that wrote it (crash
// recovery), but pinning the byte order keeps snapshots portable anyway.
constexpr char kSnapshotMagic[8] = {'P', 'R', 'V', 'M', 'D', 'C', '0', '1'};

std::uint64_t read_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  PRVM_REQUIRE(is.good(), "snapshot truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

std::int64_t read_i64(std::istream& is) { return static_cast<std::int64_t>(read_u64(is)); }

}  // namespace

void Datacenter::serialize(ByteWriter& out) const {
  out.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.u64(pms_.size());
  for (const PmRecord& pm : pms_) out.u64(pm.type);
  out.u64(next_activation_);
  out.u64(used_order_.size());
  for (const PmIndex i : used_order_) {
    out.u64(i);
    out.u64(activation_seq_[i]);
    out.u64(pms_[i].vm_count);
    for (std::uint32_t s = pms_[i].first; s != kNoSlot; s = slots_[s].next) {
      const VmSlot& slot = slots_[s];
      out.u64(slot.id);
      out.u64(slot.type);
      out.u64(slot.count);
      for (auto [dim, amount] : assignments_of(s)) {
        out.u64(static_cast<std::uint64_t>(dim));  // sign-extends, as read_i64 expects
        out.u64(static_cast<std::uint64_t>(amount));
      }
    }
  }
}

Datacenter Datacenter::deserialize(Catalog catalog, std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  PRVM_REQUIRE(is.good() && std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0,
               "not a datacenter snapshot");
  const std::uint64_t pm_count = read_u64(is);
  PRVM_REQUIRE(pm_count > 0 && pm_count < (std::uint64_t{1} << 32), "snapshot PM count corrupt");
  std::vector<std::size_t> types(pm_count);
  for (auto& t : types) t = static_cast<std::size_t>(read_u64(is));
  Datacenter dc(std::move(catalog), std::move(types));

  const std::uint64_t next_activation = read_u64(is);
  const std::uint64_t used_count = read_u64(is);
  PRVM_REQUIRE(used_count <= pm_count, "snapshot used count corrupt");
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (std::uint64_t u = 0; u < used_count; ++u) {
    const PmIndex pm = static_cast<PmIndex>(read_u64(is));
    PRVM_REQUIRE(pm < dc.pm_count(), "snapshot PM index out of range");
    const std::uint64_t seq = read_u64(is);
    PRVM_REQUIRE(first || seq > prev_seq, "snapshot activation order corrupt");
    PRVM_REQUIRE(seq < next_activation, "snapshot activation counter corrupt");
    first = false;
    prev_seq = seq;
    const std::uint64_t vm_count = read_u64(is);
    PRVM_REQUIRE(vm_count > 0, "snapshot used PM holds no VM");
    for (std::uint64_t v = 0; v < vm_count; ++v) {
      Vm vm;
      vm.id = static_cast<VmId>(read_u64(is));
      vm.type_index = static_cast<std::size_t>(read_u64(is));
      PRVM_REQUIRE(vm.type_index < dc.catalog().vm_types().size(),
                   "snapshot VM type out of range");
      DemandPlacement placement;
      const std::uint64_t assignments = read_u64(is);
      placement.assignments.reserve(assignments);
      for (std::uint64_t a = 0; a < assignments; ++a) {
        const int dim = static_cast<int>(read_i64(is));
        const int amount = static_cast<int>(read_i64(is));
        placement.assignments.emplace_back(dim, amount);
      }
      // Re-applying through place() rebuilds the buckets, free-list and
      // used order while validating capacity / anti-collocation, so a
      // corrupt snapshot throws instead of producing a broken ledger.
      dc.place(pm, vm, placement);
    }
    // place() assigned a fresh sequence number; pin the serialized one
    // (relative order is identical, so used_order_ stays sorted).
    dc.activation_seq_[pm] = seq;
  }
  dc.next_activation_ = next_activation;
  // Earliest members were tracked against a mix of fresh and pinned
  // sequence numbers while the loop ran; re-derive them from the pinned ones.
  for (TypeIndex& ti : dc.index_) {
    for (std::uint32_t s = 0; s < ti.keys.size(); ++s) dc.refresh_earliest(ti, s);
  }
  return dc;
}

void Datacenter::check_index_invariants() const {
  // Slot pool: the free list holds only free slots, each once.
  PRVM_CHECK(arena_.size() == slots_.size() * slot_stride_, "assignment arena size out of sync");
  std::vector<std::uint8_t> seen(slots_.size(), 0);  // 1 = free, 2 = on a PM list
  std::size_t free_count = 0;
  for (std::uint32_t s = free_slot_; s != kNoSlot; s = slots_[s].next) {
    PRVM_CHECK(s < slots_.size() && seen[s] == 0, "free-slot list corrupt");
    PRVM_CHECK(slots_[s].pm == kNoSlot, "slot both free and live");
    PRVM_CHECK(slots_[s].sample == 0, "free slot holds a utilization sample");
    seen[s] = 1;
    ++free_count;
  }
  // Per-PM lists: links, counts, owners, and levels = sum of assignments.
  std::size_t live_count = 0;
  std::vector<int> sum;
  for (PmIndex i = 0; i < pms_.size(); ++i) {
    const PmRecord& pm = pms_[i];
    const ProfileShape& shape = catalog_.shape(pm.type);
    sum.assign(level_stride_, 0);
    std::uint32_t walked = 0;
    std::uint32_t prev = kNoSlot;
    for (std::uint32_t s = pm.first; s != kNoSlot; s = slots_[s].next) {
      PRVM_CHECK(s < slots_.size() && seen[s] == 0, "slot on two lists or on a list and free");
      seen[s] = 2;
      const VmSlot& slot = slots_[s];
      PRVM_CHECK(slot.pm == i, "slot names the wrong PM");
      PRVM_CHECK(slot.prev == prev, "PM list back-link out of sync");
      PRVM_CHECK(slot_of(slot.id) == s, "id map does not point at the VM's slot");
      PRVM_CHECK(slot.count <= slot_stride_, "slot assignment count exceeds the stride");
      for (auto [dim, amount] : assignments_of(s)) {
        PRVM_CHECK(dim < shape.total_dims() && amount > 0, "slot assignment corrupt");
        PRVM_CHECK(amount <= shape.dim_capacity(dim),
                   "slot assignment exceeds its dimension's capacity");
        sum[static_cast<std::size_t>(dim)] += amount;
      }
      prev = s;
      ++walked;
    }
    PRVM_CHECK(pm.last == prev, "PM list tail out of sync");
    PRVM_CHECK(walked == pm.vm_count, "PM VM count does not match its list");
    live_count += walked;
    const std::span<const std::uint8_t> row =
        std::span(levels_).subspan(i * level_stride_, level_stride_);
    PRVM_CHECK(std::equal(row.begin(), row.end(), sum.begin()),
               "PM levels differ from the sum of its VMs' assignments");
    PRVM_CHECK(pm.canonical_key ==
                   pack_canonical(shape, std::span<const int>(sum).first(dims_of(i))),
               "PM canonical key stale");
  }
  PRVM_CHECK(free_count + live_count == slots_.size(), "slot neither free nor live");
  PRVM_CHECK(slot_of_.size() == live_count, "id map holds VMs no PM list holds");
  slot_of_.for_each([&](std::uint32_t s) {
    PRVM_CHECK(s < slots_.size() && seen[s] == 2, "id map holds a free slot or one slot twice");
    seen[s] = 3;
  });

  std::vector<bool> in_bucket(pms_.size(), false);
  for (std::size_t t = 0; t < index_.size(); ++t) {
    const TypeIndex& ti = index_[t];
    PRVM_CHECK(ti.heads.size() == ti.keys.size() && ti.counts.size() == ti.keys.size() &&
                   ti.earliest.size() == ti.keys.size(),
               "SoA bucket arrays disagree on length");
    std::size_t used_by_type = 0;
    for (std::uint32_t s = 0; s < ti.keys.size(); ++s) {
      PRVM_CHECK(ti.counts[s] > 0, "index holds an empty bucket");
      const std::uint32_t* slot = ti.slot_of.find(ti.keys[s]);
      PRVM_CHECK(slot != nullptr && *slot == s, "bucket key maps to the wrong slot");
      std::uint32_t walked = 0;
      std::uint32_t prev = kNoLink;
      PmIndex earliest = kNoPm;
      for (std::uint32_t i = ti.heads[s]; i != kNoLink; i = next_in_bucket_[i]) {
        PRVM_CHECK(walked < ti.counts[s], "bucket list longer than its count");
        PRVM_CHECK(!in_bucket[i], "PM appears in two buckets");
        in_bucket[i] = true;
        PRVM_CHECK(prev_in_bucket_[i] == prev, "bucket back-link out of sync");
        PRVM_CHECK(pms_[i].vm_count > 0, "bucket holds an unused PM");
        PRVM_CHECK(pms_[i].type == t, "bucket holds a PM of the wrong type");
        PRVM_CHECK(pms_[i].canonical_key == ti.keys[s], "bucket key does not match PM profile");
        if (earliest == kNoPm || activation_seq_[i] < activation_seq_[earliest]) earliest = i;
        prev = i;
        ++walked;
      }
      PRVM_CHECK(walked == ti.counts[s], "bucket count does not match its list");
      PRVM_CHECK(ti.earliest[s].pm == earliest && ti.earliest[s].seq == activation_seq_[earliest],
                 "bucket earliest member stale");
      used_by_type += walked;
    }
    PRVM_CHECK(ti.used_count == used_by_type, "per-type used count out of sync");
  }
  for (PmIndex i = 0; i < pms_.size(); ++i) {
    const bool used = pms_[i].vm_count > 0;
    PRVM_CHECK(in_bucket[i] == used, "used PM missing from its bucket");
    if (!used) {
      PRVM_CHECK(next_in_bucket_[i] == kNoLink && prev_in_bucket_[i] == kNoLink,
                 "unused PM still linked into a bucket");
    }
    const bool bit = (unused_bits_[i / 64] >> (i % 64)) & 1;
    PRVM_CHECK(bit == !used, "free-list bitmap out of sync");
  }
  for (std::size_t k = 0; k + 1 < used_order_.size(); ++k) {
    PRVM_CHECK(activation_seq_[used_order_[k]] < activation_seq_[used_order_[k + 1]],
               "used order not sorted by activation sequence");
  }
}

}  // namespace prvm
