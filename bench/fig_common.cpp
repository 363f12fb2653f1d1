#include "bench/fig_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/env.hpp"
#include "runtime/runtime.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace ats::bench {

namespace {

/// CPUs the calling process may run on, or 0 when that is unknown.
std::size_t allowedCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  return 0;
}

}  // namespace

const std::vector<Variant>& ablationVariants() {
  static const std::vector<Variant> v = {
      {"optimized", &optimizedConfig},
      {"wo_jemalloc", &withoutJemallocConfig},
      {"wo_waitfree_deps", &withoutWaitFreeDepsConfig},
      {"wo_dtlock", &withoutDTLockConfig},
  };
  return v;
}

const std::vector<Variant>& runtimeComparisonVariants() {
  static const std::vector<Variant> v = {
      {"nanos6", &optimizedConfig},
      {"gcc_like", &centralMutexRuntimeConfig},
      {"llvm_like", &workStealingRuntimeConfig},
  };
  return v;
}

SweepConfig resolveSweepConfig(MachinePreset preset) {
  SweepConfig cfg;
  const bool full = envFlag("ATS_FULL");
  cfg.scale = full ? AppScale::Full : AppScale::Quick;
  // More workers than CPUs would measure lock-holder preemption, not
  // the runtime, so the default never exceeds what this process may use.
  const std::size_t wanted = full ? makeTopology(preset).numCpus : 4;
  const std::size_t allowed = allowedCpus();
  std::size_t defaultThreads = wanted;
  if (allowed != 0 && allowed < wanted) {
    defaultThreads = allowed;
    cfg.uncappedThreads = wanted;
  }
  const std::size_t threads = envSize("ATS_THREADS", 0);
  if (threads != 0) cfg.uncappedThreads = 0;
  cfg.topo = makeTopology(preset, threads != 0 ? threads : defaultThreads);
  cfg.reps = envSize("ATS_REPS", full ? 5 : 2);
  cfg.maxPoints = full ? 64 : 5;
  return cfg;
}

namespace {

/// Subsample a coarse->fine size list to at most `maxPoints`, always
/// keeping both endpoints.
std::vector<std::size_t> selectSizes(std::vector<std::size_t> sizes,
                                     std::size_t maxPoints) {
  if (sizes.size() <= maxPoints) return sizes;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < maxPoints; ++i)
    out.push_back(sizes[i * (sizes.size() - 1) / (maxPoints - 1)]);
  return out;
}

/// One point of a curve: its throughput over the repetitions.
struct Point {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Point summarize(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {median, samples.front(), samples.back()};
}

}  // namespace

void runFigure(const std::string& figure, MachinePreset preset,
               const std::vector<std::string>& apps,
               const std::vector<Variant>& variants) {
  const SweepConfig cfg = resolveSweepConfig(preset);
  char capped[96] = "";
  if (cfg.uncappedThreads != 0) {
    std::snprintf(capped, sizeof(capped),
                  " (default %zu capped to the CPUs this process may use)",
                  cfg.uncappedThreads);
  }
  std::printf("# %s: %s preset, %zu threads%s, %zu NUMA domains, %zu reps, "
              "%s scale\n",
              figure.c_str(), presetName(preset), cfg.topo.numCpus, capped,
              cfg.topo.numNumaDomains, cfg.reps,
              cfg.scale == AppScale::Full ? "full" : "quick");
  std::printf("# efficiency = 100 * throughput / peak-median-throughput-"
              "per-app (paper §6.2); higher is better\n");
  std::printf("# cell = median [min,max] over reps; `overlap` names the "
              "variant pairs whose ranges overlap at that point\n\n");

  for (const std::string& appName : apps) {
    auto app = makeApp(appName, cfg.scale);
    const auto sizes = selectSizes(app->defaultBlockSizes(), cfg.maxPoints);

    // grid[v][s] = throughput of variant v at size s.
    std::vector<std::vector<Point>> grid(variants.size());
    std::vector<double> grains(sizes.size(), 0.0);
    double peak = 0.0;

    for (std::size_t v = 0; v < variants.size(); ++v) {
      Runtime rt(variants[v].make(cfg.topo));
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        std::vector<double> samples;
        for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
          const AppResult r = app->run(rt, sizes[s]);
          if (!r.verified) {
            std::fprintf(stderr,
                         "FATAL: %s failed verification (variant %s, "
                         "block %zu, checksum %.17g)\n",
                         appName.c_str(), variants[v].label.c_str(),
                         sizes[s], r.checksum);
            std::exit(1);
          }
          samples.push_back(r.throughput());
          grains[s] = r.grainWorkUnits();
        }
        grid[v].push_back(summarize(std::move(samples)));
        peak = std::max(peak, grid[v].back().median);
      }
    }

    const auto eff = [peak](double throughput) {
      return peak > 0 ? 100.0 * throughput / peak : 0.0;
    };
    std::printf("# %s %s\n", figure.c_str(), appName.c_str());
    std::printf("%-18s", "grain_work_units");
    for (const Variant& v : variants) std::printf("  %-19s", v.label.c_str());
    std::printf("  overlap\n");
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::printf("%-18.3g", grains[s]);
      for (std::size_t v = 0; v < variants.size(); ++v) {
        const Point& p = grid[v][s];
        std::printf("  %5.1f [%5.1f,%5.1f]", eff(p.median), eff(p.min),
                    eff(p.max));
      }
      std::string overlap;
      for (std::size_t a = 0; a < variants.size(); ++a) {
        for (std::size_t b = a + 1; b < variants.size(); ++b) {
          const Point& pa = grid[a][s];
          const Point& pb = grid[b][s];
          if (pa.min <= pb.max && pb.min <= pa.max) {
            if (!overlap.empty()) overlap += ',';
            overlap += variants[a].label + '~' + variants[b].label;
          }
        }
      }
      std::printf("  %s\n", overlap.empty() ? "-" : overlap.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace ats::bench
