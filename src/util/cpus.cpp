#include "util/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace dibella::util {

int available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace dibella::util
