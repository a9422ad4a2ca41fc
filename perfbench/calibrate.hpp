// A fixed CPU and memory workload owned by the benchmark, timed next to the
// simulator to estimate how fast the host is at the moment. On a shared
// machine the host's speed drifts by tens of percent over minutes; dividing
// a host time by the kernel's time measured around it cancels most of that
// drift. The kernel uses no simulator code, so a change to the
// simulator never changes it.
#pragma once

namespace perfbench {

/// Host seconds of one pass of the kernel: 200,000 pops and pushes on a
/// 65,536-entry binary heap, each also updating a random slot of an 8 MiB
/// table.
double calibration_kernel_s();

}  // namespace perfbench
