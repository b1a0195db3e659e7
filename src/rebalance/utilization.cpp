#include "rebalance/utilization.hpp"

#include <cmath>
#include <cstring>

namespace prvm {

std::uint32_t UtilizationCodec::ms_since_epoch(std::uint64_t now_ns) const {
  const std::uint64_t ms = now_ns <= epoch_ns_ ? 0 : (now_ns - epoch_ns_) / 1'000'000ull;
  return ms >= 0xFFFFFFFEull ? 0xFFFFFFFEu : static_cast<std::uint32_t>(ms);
}

std::uint64_t UtilizationCodec::pack(double fraction, std::uint64_t now_ns) const {
  if (!(fraction >= 0.0)) fraction = 0.0;
  if (fraction > 2.0) fraction = 2.0;
  const float f = static_cast<float>(fraction);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  const std::uint64_t ms_plus_1 = static_cast<std::uint64_t>(ms_since_epoch(now_ns)) + 1;
  return (static_cast<std::uint64_t>(bits) << 32) | ms_plus_1;
}

std::optional<double> UtilizationCodec::decayed(std::uint64_t packed,
                                                std::uint64_t now_ns) const {
  if (packed == 0) return std::nullopt;
  const std::uint32_t then_ms = static_cast<std::uint32_t>(packed & 0xFFFFFFFFull) - 1;
  const std::uint32_t now_ms = ms_since_epoch(now_ns);
  const std::uint64_t age_ms = now_ms >= then_ms ? now_ms - then_ms : 0;
  if (age_ms > config_.stale_after_ms) return std::nullopt;
  std::uint32_t bits = static_cast<std::uint32_t>(packed >> 32);
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  if (config_.half_life_ms == 0) return static_cast<double>(f);
  return static_cast<double>(f) *
         std::exp2(-static_cast<double>(age_ms) / static_cast<double>(config_.half_life_ms));
}

}  // namespace prvm
