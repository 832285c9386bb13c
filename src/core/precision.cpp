#include "core/precision.hpp"

#include <mutex>

#include "common/env.hpp"

namespace chase::core {

constinit Policy<Precision> precision_policy{
    "CHASE_PRECISION", Precision::kDouble, [](const char* var) {
      return env::choice_env(var, parse_precision, "double | mixed");
    }};

namespace {

// The promotion config is a small aggregate, not an atomic word; guarded by
// a mutex (read once per solve at setup, never on the hot path).
struct PromotionSlot {
  std::mutex mu;
  engine::PromotionConfig cfg;
};

PromotionSlot& promotion_slot() {
  static PromotionSlot slot;
  return slot;
}

}  // namespace

std::string_view precision_name(Precision p) {
  switch (p) {
    case Precision::kMixed:
      return "mixed";
    case Precision::kDouble:
    default:
      return "double";
  }
}

std::optional<Precision> parse_precision(std::string_view name) {
  if (name == "double") return Precision::kDouble;
  if (name == "mixed") return Precision::kMixed;
  return std::nullopt;
}

engine::PromotionConfig promotion_config() {
  auto& slot = promotion_slot();
  std::lock_guard<std::mutex> lock(slot.mu);
  return slot.cfg;
}

void set_promotion_config(const engine::PromotionConfig& cfg) {
  auto& slot = promotion_slot();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.cfg = cfg;
}

}  // namespace chase::core
