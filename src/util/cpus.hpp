// CPU budget of the calling thread.
#pragma once

namespace haystack::util {

/// CPUs the calling thread may run on (its affinity mask), so a run pinned
/// with `taskset -c 0` counts one CPU even though the machine has more.
/// Never less than 1. Worker pools size themselves from it: the wild-ISP
/// generator and the pipeline's body-decode stage each run
/// (usable_cpus() − 1) workers beside the thread that feeds them.
[[nodiscard]] unsigned usable_cpus();

}  // namespace haystack::util
