// Runtime precision policy for the solver pipeline.
//
// Like the collective policy (src/coll/engine.hpp), the process picks one
// solve precision for every core::solve / solve_lms call,
//
//   CHASE_PRECISION = double | mixed   (default: double; unknown text throws
//       env::ConfigError at first use)
//
//   double — every kernel runs in the working scalar type; bitwise identical
//            to the pre-mixed-precision library.
//   mixed  — the Chebyshev filter runs in fp32/complex<float> on a shadow
//            copy of H (core/dla_mixed.hpp) while QR, Rayleigh-Ritz and
//            residuals stay in fp64; a residual-driven promotion policy
//            (core/engine/promotion.hpp) drops columns — or the whole
//            subspace — back to fp64 when fp32 rounding limits convergence,
//            and one step of iterative refinement polishes pairs before
//            they lock.
//
// The policy is process-global and cheap to read (one relaxed atomic load);
// benches and tests flip it per section with ScopedPolicy. Single-
// precision instantiations (T = float / complex<float>) ignore the policy —
// there is nothing lower to demote into.
#pragma once

#include <optional>
#include <string_view>

#include "common/policy.hpp"
#include "core/engine/promotion.hpp"

namespace chase::core {

enum class Precision : int { kDouble = 0, kMixed };

std::string_view precision_name(Precision p);
std::optional<Precision> parse_precision(std::string_view name);

/// CHASE_PRECISION: the process-global solve precision (default double).
extern Policy<Precision> precision_policy;

/// Process-global promotion-policy tuning the mixed backend reads at setup;
/// tests pin aggressive configs through ScopedPromotionConfig to drive the
/// fallback paths deterministically.
engine::PromotionConfig promotion_config();
void set_promotion_config(const engine::PromotionConfig& cfg);

class ScopedPromotionConfig {
 public:
  explicit ScopedPromotionConfig(const engine::PromotionConfig& cfg)
      : prev_(promotion_config()) {
    set_promotion_config(cfg);
  }
  ~ScopedPromotionConfig() { set_promotion_config(prev_); }
  ScopedPromotionConfig(const ScopedPromotionConfig&) = delete;
  ScopedPromotionConfig& operator=(const ScopedPromotionConfig&) = delete;

 private:
  engine::PromotionConfig prev_;
};

}  // namespace chase::core
