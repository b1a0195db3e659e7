// Live CPU utilization samples for the online rebalancer (DESIGN.md §9).
//
// Collector agents push `util` ops — one CPU fraction per VM (or, for
// agents that only see the host, per PM) — at whatever cadence they like.
// The map is the meeting point between the service loop, which records
// samples, and the planner thread, which reads them, so it is fully
// lock-free: per-PM slots are a flat array of packed atomics, per-VM slots
// live in a fixed-capacity open-addressed table with CAS insertion. The
// service records a VM sample only while its ledger holds that VM and frees
// the slot when the ledger drops it (forget_vm), so the table holds the
// live VM population, not every id ever sampled. A full table drops new VM
// keys (the caller counts drops); existing keys always update in place.
//
// Samples age instead of being deleted: a read at time t sees the recorded
// fraction scaled by 2^-(age / half_life) and nothing at all once the
// sample is older than `stale_after_ms`. Decay-on-read keeps the write path
// to a single relaxed store and makes a dead feed converge to "no signal"
// — the planner only acts on PMs with live signal, so a silent collector
// can never trigger drain-the-world behavior.
//
// All timestamps are explicit nanosecond arguments (obs::now_ns() in
// production) so tests can replay exact timelines.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "cluster/datacenter.hpp"

namespace prvm {

struct UtilizationConfig {
  std::size_t pm_count = 0;
  /// Capacity of the per-VM table; 0 = derived (8x pm_count, min 1024,
  /// rounded up to a power of two). Load factor is the operator's problem:
  /// size for the fleet's VM population, not its PM count.
  std::size_t vm_capacity = 0;
  /// Half-life of a sample: after this many ms its weight has halved.
  std::uint64_t half_life_ms = 10'000;
  /// Age beyond which a sample stops counting as signal entirely.
  std::uint64_t stale_after_ms = 30'000;
};

class UtilizationMap {
 public:
  UtilizationMap(UtilizationConfig config, std::uint64_t epoch_ns);

  /// Records a per-VM sample. False when the table is full and the key is
  /// new — the sample is dropped (the feed is lossy by design).
  bool record_vm(VmId vm, double fraction, std::uint64_t now_ns);

  /// Frees `vm`'s slot (the VM left the ledger) for reuse by other VMs.
  /// Safe against concurrent readers and writers. A slot is only ever freed
  /// here, which is why the service records no sample for an id its ledger
  /// does not hold.
  void forget_vm(VmId vm);

  /// Records a direct per-PM sample. Out-of-range PMs are ignored.
  void record_pm(PmIndex pm, double fraction, std::uint64_t now_ns);

  /// Decayed fraction of the newest per-VM sample; nullopt when there is
  /// none or it has gone stale.
  std::optional<double> vm_fraction(VmId vm, std::uint64_t now_ns) const;

  /// Decayed fraction of the newest direct per-PM sample.
  std::optional<double> pm_fraction(PmIndex pm, std::uint64_t now_ns) const;

  std::size_t pm_count() const { return pm_count_; }
  std::size_t vm_capacity() const { return mask_ + 1; }
  std::uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  /// One sample packs into a u64: the fraction's float32 bits in the high
  /// half, milliseconds-since-epoch + 1 in the low half (so a packed value
  /// of 0 unambiguously means "no sample"). The ms counter saturates after
  /// ~49 days of daemon uptime; saturated samples stop aging, they never
  /// read as negative age.
  std::uint64_t pack(double fraction, std::uint64_t now_ns) const;
  std::optional<double> decayed(std::uint64_t packed, std::uint64_t now_ns) const;
  std::uint32_t ms_since_epoch(std::uint64_t now_ns) const;

  UtilizationConfig config_;
  std::size_t pm_count_;
  std::uint64_t epoch_ns_;
  std::size_t mask_;  ///< vm table size - 1 (size is a power of two)
  /// Per-VM open-addressed table: keys_[i] is 0 when never used, vm_id + 1
  /// when occupied, kTombstone once freed and kClaiming while a freed slot is
  /// being reused; values_[i] is the packed sample. Only a never-used slot
  /// ends a probe chain. Probe length is capped: a pathological cluster
  /// degrades to a drop, not a full-table scan.
  std::unique_ptr<std::atomic<std::uint64_t>[]> keys_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> values_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> pm_values_;  ///< 0 = no sample
};

}  // namespace prvm
