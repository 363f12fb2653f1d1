#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace ats {

bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "off") != 0 && std::strcmp(v, "no") != 0;
}

std::size_t envSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  // strtoull silently wraps negative input ("-1" -> 2^64-1); treat any
  // non-digit lead as the garbage the contract promises to reject.
  if (*v < '0' || *v > '9') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) return fallback;
  return static_cast<std::size_t>(parsed);
}

std::size_t envThreads(std::size_t fallback) {
  const std::size_t threads = envSize("ATS_THREADS", 0);
  if (threads == 0) return fallback;
  if (threads > kMaxEnvThreads) {
    throw std::out_of_range("ATS_THREADS=" + std::to_string(threads) +
                            " is above the limit of " +
                            std::to_string(kMaxEnvThreads) + " workers");
  }
  return threads;
}

std::string envString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

}  // namespace ats
