#include "la/factor/policy.hpp"

#include "common/env.hpp"

namespace chase::la {

constinit Policy<FactorKernel> factor_kernel_policy{
    "CHASE_FACTOR_KERNEL", FactorKernel::kBlocked, [](const char* var) {
      return env::choice_env(var, parse_factor_kernel, "naive | blocked");
    }};

std::string_view factor_kernel_name(FactorKernel k) {
  switch (k) {
    case FactorKernel::kNaive:
      return "naive";
    case FactorKernel::kBlocked:
    default:
      return "blocked";
  }
}

std::string_view factor_kernel_counter(FactorKernel k) {
  switch (k) {
    case FactorKernel::kNaive:
      return "la.factor.naive.calls";
    case FactorKernel::kBlocked:
    default:
      return "la.factor.blocked.calls";
  }
}

std::optional<FactorKernel> parse_factor_kernel(std::string_view name) {
  if (name == "naive") return FactorKernel::kNaive;
  if (name == "blocked") return FactorKernel::kBlocked;
  return std::nullopt;
}

FactorKernel factor_kernel_for(Index n) {
  if (const auto pinned = factor_kernel_policy.pinned()) return *pinned;
  if (const perf::TunedTables* t = perf::tuned_tables()) {
    const int tuned = t->factor_kernel[int(perf::factor_n_class(n))];
    if (tuned >= 0) return FactorKernel(tuned);
  }
  return factor_kernel_policy.fallback();
}

}  // namespace chase::la
