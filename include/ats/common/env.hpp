#pragma once

#include <cstddef>
#include <string>

namespace ats {

/// True when `name` is set to anything but "", "0", "false", "off", "no".
/// The ATS_FULL / ATS_TRACE-style switches documented in EXPERIMENTS.md
/// all go through this helper.
bool envFlag(const char* name);

/// Unsigned size from the environment, or `fallback` when unset/garbage.
std::size_t envSize(const char* name, std::size_t fallback);

/// Most workers ATS_THREADS may ask for: 8x the widest machine preset
/// (Rome, 128 CPUs).
inline constexpr std::size_t kMaxEnvThreads = 1024;

/// Worker count from ATS_THREADS, the one reader every benchmark harness
/// uses: `fallback` when unset, 0 or garbage.  Above kMaxEnvThreads it
/// throws std::out_of_range with a message naming the limit, so a typo
/// never asks for tens of thousands of workers.
std::size_t envThreads(std::size_t fallback);

/// String from the environment, or `fallback` when unset.
std::string envString(const char* name, const std::string& fallback);

}  // namespace ats
