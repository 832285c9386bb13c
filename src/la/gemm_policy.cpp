#include "la/gemm_policy.hpp"

#include "common/env.hpp"

namespace chase::la {

constinit Policy<GemmKernel> gemm_kernel_policy{
    "CHASE_GEMM_KERNEL", GemmKernel::kMicro, [](const char* var) {
      return env::choice_env(var, parse_gemm_kernel, "naive | micro");
    }};

std::string_view gemm_kernel_name(GemmKernel k) {
  switch (k) {
    case GemmKernel::kNaive:
      return "naive";
    case GemmKernel::kMicro:
    default:
      return "micro";
  }
}

std::string_view gemm_kernel_counter(GemmKernel k) {
  switch (k) {
    case GemmKernel::kNaive:
      return "la.kernel.naive.calls";
    case GemmKernel::kMicro:
    default:
      return "la.kernel.micro.calls";
  }
}

std::optional<GemmKernel> parse_gemm_kernel(std::string_view name) {
  if (name == "naive") return GemmKernel::kNaive;
  if (name == "micro") return GemmKernel::kMicro;
  return std::nullopt;
}

GemmKernel gemm_kernel_for(perf::ScalarTag tag, Index m, Index n, Index k) {
  if (const auto pinned = gemm_kernel_policy.pinned()) return *pinned;
  if (const perf::TunedTables* t = perf::tuned_tables()) {
    const perf::NClass cls =
        perf::gemm_n_class(double(m), double(n), double(k));
    const int tuned = t->gemm_kernel[int(tag)][int(cls)];
    if (tuned >= 0) return GemmKernel(tuned);
  }
  return gemm_kernel_policy.fallback();
}

}  // namespace chase::la
