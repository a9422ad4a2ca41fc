// Heap allocation counter for the perfbench binary: every global
// `operator new` call since process start.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t allocations();

}  // namespace perfbench
