#include "campaign/ordered_window.hpp"

#include <sched.h>

namespace loki::campaign {

int coordinator_helpers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return std::clamp(CPU_COUNT(&set) - 1, 0, kMaxCoordinatorHelpers);
}

}  // namespace loki::campaign
