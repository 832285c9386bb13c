#include "ckpt/policy.hpp"

#include "common/env.hpp"

namespace chase::ckpt {

constinit Policy<int> interval_policy{
    "CHASE_CKPT_INTERVAL", 0, [](const char* var) -> std::optional<int> {
      if (const auto v = env::positive_env(var)) return int(*v);
      return std::nullopt;
    }};

}  // namespace chase::ckpt
