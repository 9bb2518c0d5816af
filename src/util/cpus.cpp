#include "util/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace haystack::util {

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1u, static_cast<unsigned>(CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace haystack::util
