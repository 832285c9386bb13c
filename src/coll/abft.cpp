#include "coll/abft.hpp"

#include "common/env.hpp"

namespace chase::coll {

constinit Policy<bool> abft_policy{"CHASE_ABFT", false, env::boolean_env};

}  // namespace chase::coll
