#pragma once
/// \file cpus.hpp
/// How many CPUs this process may run on.

namespace dibella::util {

/// CPUs in this process's affinity mask (sched_getaffinity), which honours
/// taskset/cgroup pinning where std::thread::hardware_concurrency reports
/// the whole machine. Falls back to hardware_concurrency when the mask
/// cannot be read; always >= 1.
int available_cpus();

}  // namespace dibella::util
