// Checkpoint cadence policy.
//
// CHASE_CKPT_INTERVAL=k captures a snapshot every k-th iteration boundary
// (0 or unset: checkpointing disabled). Pinning interval_policy (ScopedPolicy
// in tests) shadows the environment.
#pragma once

#include "common/policy.hpp"

namespace chase::ckpt {

/// Effective capture cadence: the pinned override if one is set, otherwise
/// CHASE_CKPT_INTERVAL, otherwise 0 (disabled).
extern Policy<int> interval_policy;

}  // namespace chase::ckpt
