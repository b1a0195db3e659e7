// The datacenter allocation ledger.
//
// Tracks, for every PM, the concrete per-core / per-disk / memory usage in
// quantized levels and which VM occupies which dimensions — the x/y/z
// assignment variables of the paper's §IV formulation in executable form.
// All placement algorithms mutate a Datacenter through place()/remove(),
// which enforce capacity and anti-collocation invariants on every call.
//
// The ledger is a slot pool, laid out so a place or a remove touches a few
// cache lines rather than a dozen heap blocks:
// - every VM lives in one fixed-size slot record (id, type, PM, assignment
//   count, the links of its PM's list and its utilization sample), with its
//   (dimension, levels) assignments in a parallel arena at a fixed stride
//   sized by the catalog's largest demand, two bytes an item (a dimension
//   index is < 64 and the constructor requires every capacity to fit a
//   byte); freed slots are reused LIFO;
// - each PM's VMs form a doubly-linked list through the slots, in
//   insertion order, which keeps snapshots, digests and WAL bytes exactly
//   as the order VMs were placed;
// - the levels of all PMs sit in one flat array of bytes (the constructor
//   requires every capacity to fit one), one fixed-stride row each, as wide
//   as the widest PM shape; a PM's own width is its type's total_dims();
// - a VM id finds its slot through a RecordIndex: 4-byte entries of slot
//   number and hash tag, the id itself read back from the slot (so the pool
//   holds fewer than 2^24 slots);
// - each VM's and each PM's latest utilization sample (DESIGN.md §9) is one
//   word in its slot or PM record. Samples are soft state: serialize(), the
//   state digest and the WAL never see them, remove() drops the VM's, and a
//   new or deserialized ledger has none.
// Once the pool and the map have grown to the live population, place() and
// remove() allocate nothing, and a copy is a handful of flat-array copies
// whatever the VM count. pm(i) returns a borrowed view of one PM.
//
// Alongside the ledger the datacenter incrementally maintains a
// placement index in struct-of-arrays form: per PM type, parallel arrays of
// bucket canonical key, head PM, member count and earliest member (the
// member with the smallest activation sequence number, with that number),
// plus an intrusive doubly-linked membership list threaded through per-PM
// 4-byte next/prev arrays (the constructor caps the fleet below 2^32 PMs).
// PageRankVM's indexed pick sweeps the contiguous key and earliest-member
// arrays — evaluating each *distinct* live profile once and breaking score
// ties by the earliest member — without walking any bucket. An activation
// sequence number per used PM (Algorithm 2's used_PM_list order) and a
// bitmap free-list of unused PMs round out the index. Every mutation is
// O(1) and allocation-free at steady state, except that a bucket losing its
// earliest member walks its remaining members once.
//
// Per PM the ledger keeps a 32-byte PmRecord, a levels row (13 bytes for
// the EC2 shapes) and 8 bytes of bucket links: 53 bytes, about 0.5 MB at
// 10,000 PMs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "common/flat_map.hpp"
#include "profile/permutation.hpp"

namespace prvm {

class ByteWriter;

/// Index of a PM within a Datacenter.
using PmIndex = std::size_t;

class Datacenter {
  /// One (dimension, levels) assignment item of the arena. Trivial, so
  /// copying the arena is one memmove.
  struct Item {
    std::uint8_t dim;
    std::uint8_t amount;
  };

 public:
  /// One VM's dimension assignments: (global dimension index, levels) pairs
  /// — its y/z variables. A borrowed view of packed items whose iterator
  /// yields std::pair<int, int>; converts to an owning vector.
  class Assignments {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::pair<int, int>;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = std::pair<int, int>;
      iterator() = default;
      std::pair<int, int> operator*() const { return {item_->dim, item_->amount}; }
      iterator& operator++() {
        ++item_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++item_;
        return old;
      }
      bool operator==(const iterator& o) const { return item_ == o.item_; }

     private:
      friend class Assignments;
      explicit iterator(const Item* item) : item_(item) {}
      const Item* item_ = nullptr;
    };

    Assignments() = default;
    iterator begin() const { return iterator(items_.data()); }
    iterator end() const { return iterator(items_.data() + items_.size()); }
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    operator std::vector<std::pair<int, int>>() const { return {begin(), end()}; }
    friend bool operator==(Assignments a, Assignments b) { return std::ranges::equal(a, b); }

   private:
    friend class Datacenter;
    explicit Assignments(std::span<const Item> items) : items_(items) {}
    std::span<const Item> items_;
  };

  /// A VM placed on a PM together with its dimension assignments.
  struct PlacedVm {
    Vm vm;
    Assignments assignments;
    std::uint64_t sample = 0;  ///< the VM's utilization sample word; 0 = none
  };

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One VM of the slot pool. A free slot has pm == kNoSlot and chains the
  /// free list through `next`.
  struct VmSlot {
    VmId id = 0;
    std::uint32_t type = 0;
    std::uint32_t pm = kNoSlot;
    std::uint32_t next = kNoSlot;  ///< next VM on the same PM, in insertion order
    std::uint32_t prev = kNoSlot;
    std::uint32_t count = 0;  ///< assignments used of the slot's arena row
    std::uint64_t sample = 0;  ///< utilization sample word; 0 = none
  };

 public:
  /// Borrowed walk of a PM's VMs in insertion order, through its slot list.
  /// Invalidated by the next place()/remove().
  class VmList {
    struct Pool {
      std::span<const VmSlot> slots;
      std::span<const Item> arena;
      std::size_t stride = 0;
      PlacedVm at(std::uint32_t slot) const {
        const VmSlot& s = slots[slot];
        return {Vm{s.id, s.type}, Assignments(arena.subspan(slot * stride, s.count)), s.sample};
      }
    };

   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PlacedVm;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PlacedVm;
      iterator() = default;
      PlacedVm operator*() const { return pool_.at(cur_); }
      iterator& operator++() {
        cur_ = pool_.slots[cur_].next;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }

     private:
      friend class VmList;
      iterator(Pool pool, std::uint32_t cur) : pool_(pool), cur_(cur) {}
      Pool pool_;
      std::uint32_t cur_ = kNoSlot;
    };

    iterator begin() const { return {pool_, first_}; }
    iterator end() const { return {pool_, kNoSlot}; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    PlacedVm front() const { return pool_.at(first_); }
    PlacedVm back() const { return pool_.at(last_); }

   private:
    friend class Datacenter;
    Pool pool_;
    std::uint32_t first_ = kNoSlot;
    std::uint32_t last_ = kNoSlot;
    std::uint32_t size_ = 0;
  };

  /// Borrowed view of one PM. Invalidated by the next place()/remove().
  struct PmView {
    std::size_t type_index = 0;
    ProfileView usage;         ///< raw per-dimension levels (not canonical)
    ProfileKey canonical_key = 0;  ///< canonical key of `usage`
    VmList vms;

    bool used() const { return !vms.empty(); }
  };

  /// No PM (an empty bucket's earliest member, a search that found none).
  static constexpr PmIndex kNoPm = static_cast<PmIndex>(-1);
  /// Sentinel terminating the intrusive bucket-membership lists.
  static constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;

  /// Borrowed, allocation-free view of one bucket's member PMs (a walk of
  /// the intrusive list). Membership order is arbitrary (use
  /// activation_seq() to recover used-list order). Invalidated by the next
  /// place()/remove().
  class BucketView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PmIndex;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PmIndex;
      PmIndex operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = next_[cur_];
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        cur_ = next_[cur_];
        return old;
      }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

     private:
      friend class BucketView;
      iterator(std::uint32_t cur, const std::uint32_t* next) : cur_(cur), next_(next) {}
      std::uint32_t cur_;
      const std::uint32_t* next_;
    };

    BucketView() = default;
    iterator begin() const { return {head_, next_}; }
    iterator end() const { return {kNoLink, next_}; }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class Datacenter;
    BucketView(std::uint32_t head, std::uint32_t size, const std::uint32_t* next)
        : head_(head), size_(size), next_(next) {}
    std::uint32_t head_ = kNoLink;
    std::uint32_t size_ = 0;
    const std::uint32_t* next_ = nullptr;
  };

  /// Builds a datacenter of pm_types_of[i] typed PMs over a catalog. The
  /// catalog is copied so the datacenter is self-contained. Every dimension
  /// capacity must fit a byte (the built-in catalogs use at most 32 levels).
  Datacenter(Catalog catalog, std::vector<std::size_t> pm_types_of);

  const Catalog& catalog() const { return catalog_; }
  std::size_t pm_count() const { return pms_.size(); }
  PmView pm(PmIndex i) const;
  const ProfileShape& shape_of(PmIndex i) const { return catalog_.shape(pms_.at(i).type); }

  /// PMs currently hosting at least one VM, in activation order — the
  /// used_PM_list of Algorithm 2.
  const std::vector<PmIndex>& used_pms() const { return used_order_; }

  /// PMs hosting no VM, in index order — the unused_PM_list.
  std::vector<PmIndex> unused_pms() const;

  /// First unused PM with index >= `from`, or nullopt. Together with the
  /// maintained free-list bitmap this replaces scanning unused_pms().
  std::optional<PmIndex> next_unused(PmIndex from = 0) const;

  std::size_t used_count() const { return used_order_.size(); }

  /// Used PMs of PM type `pm_type`.
  std::size_t used_count_of_type(std::size_t pm_type) const {
    return index_.at(pm_type).used_count;
  }

  /// Number of distinct canonical profiles among used PMs of `pm_type`.
  std::size_t used_bucket_count(std::size_t pm_type) const {
    return index_.at(pm_type).keys.size();
  }

  /// The canonical keys of `pm_type`'s live buckets, one per bucket, in
  /// dense slot order — the indexed engine's candidate scan sweeps this
  /// contiguously. Parallel to bucket_earliest(). Invalidated by the next
  /// place()/remove().
  std::span<const ProfileKey> bucket_keys(std::size_t pm_type) const {
    const TypeIndex& ti = index_.at(pm_type);
    return {ti.keys.data(), ti.keys.size()};
  }

  /// A bucket's earliest member: the first of its PMs in used_pms() order.
  struct Earliest {
    std::uint64_t seq = 0;  ///< activation_seq(pm)
    PmIndex pm = 0;
  };

  /// The earliest member of each of `pm_type`'s live buckets, parallel to
  /// bucket_keys(). Invalidated by the next place()/remove().
  std::span<const Earliest> bucket_earliest(std::size_t pm_type) const {
    const TypeIndex& ti = index_.at(pm_type);
    return {ti.earliest.data(), ti.earliest.size()};
  }

  /// Member view of the bucket at dense `slot` (parallel to bucket_keys()).
  BucketView bucket_at(std::size_t pm_type, std::size_t slot) const {
    const TypeIndex& ti = index_.at(pm_type);
    return BucketView{ti.heads.at(slot), ti.counts.at(slot), next_in_bucket_.data()};
  }

  /// The used PMs of type `pm_type` whose canonical profile is `key`; an
  /// empty view when there are none.
  BucketView used_bucket(std::size_t pm_type, ProfileKey key) const;

  /// Calls f(ProfileKey, BucketView) for every non-empty bucket of
  /// `pm_type`, in dense slot order.
  template <typename F>
  void for_each_used_bucket(std::size_t pm_type, F&& f) const {
    const TypeIndex& ti = index_.at(pm_type);
    for (std::size_t s = 0; s < ti.keys.size(); ++s) {
      f(ti.keys[s], BucketView{ti.heads[s], ti.counts[s], next_in_bucket_.data()});
    }
  }

  /// Strictly increasing number assigned each time a PM turns used; PMs
  /// earlier in used_pms() have smaller numbers. Only meaningful for used
  /// PMs (the tie-break key of the indexed Algorithm 2 scan).
  std::uint64_t activation_seq(PmIndex i) const { return activation_seq_.at(i); }

  /// The next activation sequence number that will be handed out. Restored
  /// by deserialize() so recovered ledgers keep numbering where they left
  /// off (bit-identical continuation after crash recovery).
  std::uint64_t activation_counter() const { return next_activation_; }

  /// True when VM type `vm_type` has at least one feasible anti-collocation
  /// placement on PM `i` right now.
  bool fits(PmIndex i, std::size_t vm_type) const;

  /// All distinct-by-canonical-outcome placements of VM type `vm_type` on
  /// PM `i` (Algorithm 2 line 6). Empty when the VM does not fit.
  std::vector<DemandPlacement> placements(PmIndex i, std::size_t vm_type) const;

  /// Places a VM with explicit (dimension, amount) assignments, such as a
  /// placement from placements() or a WAL record's. Validates capacity and
  /// anti-collocation.
  void place(PmIndex i, const Vm& vm, std::span<const std::pair<int, int>> assignments);
  void place(PmIndex i, const Vm& vm, const DemandPlacement& placement) {
    place(i, vm, placement.assignments);
  }

  /// Places with the first feasible placement (used by baselines that do
  /// not score permutations). Throws if the VM does not fit.
  void place_first_fit(PmIndex i, const Vm& vm);

  /// Removes a VM and returns its record (for migration re-placement),
  /// sample included. The record's assignments stay valid until the next
  /// remove() or clear().
  PlacedVm remove(VmId vm);

  /// The PM currently hosting `vm`, if any.
  std::optional<PmIndex> pm_of(VmId vm) const;
  /// The record of placed VM `vm` (throws when it is not placed). Its
  /// assignments are invalidated by the next place()/remove().
  PlacedVm placed(VmId vm) const;

  /// Utilization sample words (see the class comment; the encoding is
  /// UtilizationCodec's). set_vm_sample() is false, storing nothing, when
  /// `vm` is not placed; vm_sample() is 0 then.
  bool set_vm_sample(VmId vm, std::uint64_t sample);
  std::uint64_t vm_sample(VmId vm) const;
  void set_pm_sample(PmIndex i, std::uint64_t sample) { pms_.at(i).sample = sample; }
  std::uint64_t pm_sample(PmIndex i) const { return pms_.at(i).sample; }

  /// Takes over `from`'s samples of every PM and of every VM this ledger
  /// also holds (installing a replacement ledger keeps the live feed).
  void copy_samples_from(const Datacenter& from);

  std::size_t vm_count() const { return slot_of_.size(); }

  /// Resets every PM to empty (keeps the catalog and PM fleet).
  void clear();

  /// Binary snapshot of the full ledger state: PM fleet, every placed VM
  /// with its dimension assignments, activation sequence numbers and the
  /// activation counter. The placement index (buckets, free-list bitmap) is
  /// derived state and is rebuilt exactly on deserialize(); the catalog is
  /// NOT serialized — the caller supplies an identical one to deserialize().
  void serialize(ByteWriter& out) const;

  /// Rebuilds a datacenter from a serialize() stream. Placements are
  /// re-applied in activation order through the normal place() path, so
  /// every index invariant holds on the restored ledger and the activation
  /// sequence numbers / counter match the serialized original exactly.
  /// Throws on malformed input or a catalog mismatch.
  static Datacenter deserialize(Catalog catalog, std::istream& is);

  /// Verifies the slot pool and every placement-index invariant against
  /// each other: the id map, the live slots and the per-PM lists agree both
  /// ways, no slot is both free and live, a free slot holds no sample, every
  /// assignment item is within its dimension's capacity, each PM's levels
  /// are the sum of its VMs' assignments; buckets partition the used PMs by canonical key,
  /// intrusive lists and counts agree, each bucket's earliest member is its
  /// minimum activation sequence, the free-list bitmap matches, activation
  /// order matches used_pms(). Test hook; throws on violation.
  void check_index_invariants() const;

 private:
  /// Placement index of one PM type, struct-of-arrays: slot s of the dense
  /// bucket array is (keys[s], heads[s], counts[s], earliest[s]); members
  /// are threaded through next_in_bucket_/prev_in_bucket_. `slot_of` maps a
  /// canonical key to its slot; emptied buckets leave a kNoBucket tombstone
  /// *value* behind (the flat map never erases).
  struct TypeIndex {
    std::vector<ProfileKey> keys;
    std::vector<std::uint32_t> heads;
    std::vector<std::uint32_t> counts;
    std::vector<Earliest> earliest;
    FlatMap64<std::uint32_t> slot_of;
    std::size_t used_count = 0;
  };
  static constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;

  /// Per-PM ledger record: its slot list and canonical key. Its levels are
  /// the first shape(type).total_dims() bytes of row `i` of levels_.
  struct PmRecord {
    std::uint32_t type = 0;
    std::uint32_t first = kNoSlot;
    std::uint32_t last = kNoSlot;
    std::uint32_t vm_count = 0;
    ProfileKey canonical_key = 0;
    std::uint64_t sample = 0;  ///< utilization sample word; 0 = none
  };
  static_assert(sizeof(PmRecord) == 32, "a PmRecord is half a cache line");

  std::size_t dims_of(PmIndex i) const {
    return static_cast<std::size_t>(catalog_.shape(pms_[i].type).total_dims());
  }
  std::span<std::uint8_t> levels_of(PmIndex i) {
    return std::span(levels_).subspan(i * level_stride_, dims_of(i));
  }
  std::span<const std::uint8_t> levels_of(PmIndex i) const {
    return std::span(levels_).subspan(i * level_stride_, dims_of(i));
  }
  Assignments assignments_of(std::uint32_t slot) const {
    return Assignments(std::span(arena_).subspan(slot * slot_stride_, slots_[slot].count));
  }
  /// The key slot_of_ reads back from the pool: the VM id a slot holds.
  auto slot_id() const {
    return [this](std::uint32_t s) { return slots_[s].id; };
  }
  /// The slot of placed VM `vm`, or kNoSlot.
  std::uint32_t slot_of(VmId vm) const {
    static_assert(RecordIndex<VmId, IdHash>::kNone == kNoSlot);
    return slot_of_.find(vm, slot_id());
  }
  std::uint32_t acquire_slot();
  void add_to_bucket(PmIndex i);
  void remove_from_bucket(PmIndex i);
  /// Re-derives earliest[slot] of `ti` by walking the bucket's members.
  void refresh_earliest(TypeIndex& ti, std::uint32_t slot);
  void mark_used(PmIndex i);
  void mark_unused(PmIndex i);

  Catalog catalog_;
  std::vector<PmRecord> pms_;
  std::vector<std::uint8_t> levels_;  // pm_count() rows of level_stride_ levels
  std::size_t level_stride_ = 0;
  std::vector<VmSlot> slots_;
  std::vector<Item> arena_;  // slots_.size() rows of slot_stride_
  std::size_t slot_stride_ = 0;
  std::uint32_t free_slot_ = kNoSlot;  // head of the free-slot list
  RecordIndex<VmId, IdHash> slot_of_;  // VM id -> slot
  std::vector<Item> removed_;  // the last remove()'s assignments
  std::vector<PmIndex> used_order_;

  // Placement index (see class comment). A PM's dense slot is found through
  // slot_of by its canonical key (so swap-erasing a dead bucket only patches
  // one map entry, never the members of the moved bucket).
  std::vector<TypeIndex> index_;               // per PM type
  std::vector<std::uint32_t> next_in_bucket_;  // per PM: intrusive list links, kNoLink ends
  std::vector<std::uint32_t> prev_in_bucket_;
  std::vector<std::uint64_t> activation_seq_;  // per PM: valid while used
  std::vector<std::uint64_t> unused_bits_;     // bitmap, 1 = unused
  std::uint64_t next_activation_ = 0;
};

}  // namespace prvm
