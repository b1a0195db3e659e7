// CPU utilization samples for the online rebalancer (DESIGN.md §9).
//
// Collector agents push `util` ops — one CPU fraction per VM (or, for
// agents that only see the host, per PM) — at whatever cadence they like.
// A sample lives in the ledger itself, one word in the VM's slot or the
// PM's record (Datacenter::set_vm_sample / set_pm_sample), written by the
// service loop. The planner reads the samples of the frozen ledger copy it
// already scans, so no sample store is shared between threads. A release
// drops the VM's sample with its slot, and a sample for a VM the ledger does
// not hold is refused, so samples never outlive their VMs.
//
// This file is the codec of those words. Samples age instead of being
// deleted: a read at time t sees the recorded fraction scaled by
// 2^-(age / half_life) and nothing at all once the sample is older than
// `stale_after_ms`. Decay-on-read keeps the write path to a single store
// and makes a dead feed converge to "no signal" — the planner only acts on
// PMs with live signal, so a silent collector can never trigger
// drain-the-world behavior.
//
// All timestamps are explicit nanosecond arguments (obs::now_ns() in
// production) so tests can replay exact timelines.
#pragma once

#include <cstdint>
#include <optional>

namespace prvm {

struct UtilizationConfig {
  /// Half-life of a sample: after this many ms its weight has halved.
  std::uint64_t half_life_ms = 10'000;
  /// Age beyond which a sample stops counting as signal entirely.
  std::uint64_t stale_after_ms = 30'000;
};

class UtilizationCodec {
 public:
  UtilizationCodec(UtilizationConfig config, std::uint64_t epoch_ns)
      : config_(config), epoch_ns_(epoch_ns) {}

  /// One sample packs into a u64: the fraction's float32 bits in the high
  /// half, milliseconds-since-epoch + 1 in the low half (so a packed value
  /// of 0 unambiguously means "no sample"). Fractions clamp to the
  /// protocol's [0, 2]. The ms counter saturates after ~49 days of daemon
  /// uptime; saturated samples stop aging, they never read as negative age.
  std::uint64_t pack(double fraction, std::uint64_t now_ns) const;

  /// Decayed fraction of a packed sample; nullopt when there is none or it
  /// has gone stale.
  std::optional<double> decayed(std::uint64_t packed, std::uint64_t now_ns) const;

 private:
  std::uint32_t ms_since_epoch(std::uint64_t now_ns) const;

  UtilizationConfig config_;
  std::uint64_t epoch_ns_;
};

}  // namespace prvm
