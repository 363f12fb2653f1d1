#include "instr/trace_analyzer.hpp"

#include <algorithm>
#include <cstdio>

namespace ats {

namespace {

constexpr double kNsPerUs = 1000.0;

bool timeBefore(const TraceRecord& a, const TraceRecord& b) {
  return a.timeNs < b.timeNs;
}

/// View of `records` in timestamp order.  The common producer
/// (Tracer::collect / a written trace thereof) is already sorted, so
/// the usual cost is one O(n) is_sorted scan and no copy; only
/// hand-built or spliced record sets pay the copy + stable_sort into
/// `storage`.
const std::vector<TraceRecord>& sortedView(
    const std::vector<TraceRecord>& records,
    std::vector<TraceRecord>& storage) {
  if (std::is_sorted(records.begin(), records.end(), timeBefore))
    return records;
  storage = records;
  std::stable_sort(storage.begin(), storage.end(), timeBefore);
  return storage;
}

struct IrqInterval {
  std::uint64_t beginNs;
  std::uint64_t endNs;
};

/// Pair KernelIrqEnter..Exit sequentially per stream; an unclosed Enter
/// extends to the end of the trace (the displaced thread never saw the
/// burst finish inside the traced window).
std::vector<IrqInterval> irqIntervals(const std::vector<TraceRecord>& sorted,
                                      std::uint64_t traceEndNs) {
  std::vector<IrqInterval> intervals;
  // Keyed by stream so two injectors on distinct kernel-side streams
  // cannot cross-close each other's bursts.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> open;
  for (const TraceRecord& r : sorted) {
    if (r.event == TraceEvent::KernelIrqEnter) {
      open.emplace_back(r.stream, r.timeNs);
    } else if (r.event == TraceEvent::KernelIrqExit) {
      for (std::size_t i = open.size(); i-- > 0;) {
        if (open[i].first == r.stream) {
          intervals.push_back({open[i].second, r.timeNs});
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  for (const auto& [stream, beginNs] : open)
    intervals.push_back({beginNs, traceEndNs});
  return intervals;
}

bool overlaps(std::uint64_t aBegin, std::uint64_t aEnd,
              const IrqInterval& irq) {
  return aBegin < irq.endNs && irq.beginNs < aEnd;
}

enum class WorkerInterval { Idle, Busy };

/// The one idle/busy interval pairing used by BOTH the statistics and
/// the timeline, so the two renderings cannot drift apart: Begin/Start
/// opens, End closes, and an interval still open at the trace edge is
/// reported up to `traceEndNs` with closed=false (a starved worker's
/// final IdleBegin must count; an unclosed TaskStart is charged as busy
/// time but not as a completed task).
template <typename Fn>
void forEachWorkerInterval(const std::vector<TraceRecord>& sorted,
                           std::size_t numThreads, std::uint64_t traceEndNs,
                           Fn&& fn) {
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<std::uint64_t> idleSince(numThreads, kNever);
  std::vector<std::uint64_t> busySince(numThreads, kNever);
  for (const TraceRecord& r : sorted) {
    if (r.stream >= numThreads) continue;
    switch (r.event) {
      case TraceEvent::WorkerIdleBegin:
        idleSince[r.stream] = r.timeNs;
        break;
      case TraceEvent::WorkerIdleEnd:
        if (idleSince[r.stream] != kNever) {
          fn(r.stream, WorkerInterval::Idle, idleSince[r.stream], r.timeNs,
             true);
          idleSince[r.stream] = kNever;
        }
        break;
      case TraceEvent::TaskStart:
        busySince[r.stream] = r.timeNs;
        break;
      case TraceEvent::TaskEnd:
      // A throwing body's interval is REAL busy time — the worker was
      // executing until the throw — so TaskFailed closes the span
      // exactly like TaskEnd (the failure accounting itself happens in
      // the counter pass, not here).
      case TraceEvent::TaskFailed:
        if (busySince[r.stream] != kNever) {
          fn(r.stream, WorkerInterval::Busy, busySince[r.stream], r.timeNs,
             true);
          busySince[r.stream] = kNever;
        }
        break;
      default:
        break;
    }
  }
  for (std::size_t t = 0; t < numThreads; ++t) {
    if (idleSince[t] != kNever)
      fn(static_cast<std::uint16_t>(t), WorkerInterval::Idle, idleSince[t],
         traceEndNs, false);
    if (busySince[t] != kNever)
      fn(static_cast<std::uint16_t>(t), WorkerInterval::Busy, busySince[t],
         traceEndNs, false);
  }
}

}  // namespace

TraceAnalysis analyzeTrace(const std::vector<TraceRecord>& records,
                           std::size_t numThreads) {
  TraceAnalysis analysis;
  analysis.threads.resize(numThreads);
  analysis.recordCount = records.size();
  if (records.empty()) return analysis;

  std::vector<TraceRecord> sortStorage;
  const std::vector<TraceRecord>& sorted = sortedView(records, sortStorage);
  const std::uint64_t t0 = sorted.front().timeNs;
  const std::uint64_t t1 = sorted.back().timeNs;
  analysis.spanUs = static_cast<double>(t1 - t0) / kNsPerUs;

  std::vector<std::uint64_t> serveTimes;
  for (const TraceRecord& r : sorted) {
    switch (r.event) {
      case TraceEvent::SchedServe:
        ++analysis.serveCount;
        analysis.servedTasks += r.payload;
        serveTimes.push_back(r.timeNs);
        break;
      case TraceEvent::SchedDrain:
        ++analysis.drainCount;
        analysis.drainedTasks += r.payload;
        break;
      case TraceEvent::SchedLockContended:
        ++analysis.contendedCount;
        break;
      case TraceEvent::SchedSteal:
        ++analysis.stealCount;
        // Per-thread attribution covers worker streams only; the
        // spawner's steals (stream == numThreads) still count in the
        // total above.
        if (r.stream < numThreads) ++analysis.threads[r.stream].steals;
        break;
      case TraceEvent::TaskStart:
        ++analysis.taskStartCount;
        break;
      case TraceEvent::TaskFailed:
        ++analysis.taskFailedCount;
        break;
      case TraceEvent::TaskSkipped:
        ++analysis.taskSkippedCount;
        break;
      case TraceEvent::GraphCancelled:
        ++analysis.graphCancelledCount;
        break;
      default:
        break;
    }
  }
  if (analysis.taskStartCount > 0) {
    analysis.stealRatio = static_cast<double>(analysis.stealCount) /
                          static_cast<double>(analysis.taskStartCount);
  }
  forEachWorkerInterval(
      sorted, numThreads, t1,
      [&](std::uint16_t stream, WorkerInterval kind, std::uint64_t beginNs,
          std::uint64_t endNs, bool closed) {
        ThreadTraceStats& thread = analysis.threads[stream];
        const double us = static_cast<double>(endNs - beginNs) / kNsPerUs;
        if (kind == WorkerInterval::Idle) {
          thread.idleUs += us;
        } else {
          thread.busyUs += us;
          if (closed) ++thread.tasksExecuted;
        }
      });
  for (std::size_t t = 0; t < numThreads; ++t) {
    analysis.threads[t].idlePct =
        analysis.spanUs > 0
            ? 100.0 * analysis.threads[t].idleUs / analysis.spanUs
            : 0;
    analysis.meanIdlePct += analysis.threads[t].idlePct;
  }
  if (numThreads > 0)
    analysis.meanIdlePct /= static_cast<double>(numThreads);

  const std::vector<IrqInterval> irqs = irqIntervals(sorted, t1);
  analysis.irqCount = irqs.size();
  for (const IrqInterval& irq : irqs)
    analysis.irqTotalUs +=
        static_cast<double>(irq.endNs - irq.beginNs) / kNsPerUs;

  // Serve gaps: consecutive SchedServe pairs only.  The trace edges are
  // excluded deliberately — before the first serve the scheduler may
  // simply have had no delegation traffic yet, which is not starvation.
  for (std::size_t i = 1; i < serveTimes.size(); ++i) {
    const std::uint64_t gapBegin = serveTimes[i - 1];
    const std::uint64_t gapEnd = serveTimes[i];
    const double gapUs = static_cast<double>(gapEnd - gapBegin) / kNsPerUs;
    analysis.maxServeGapUs = std::max(analysis.maxServeGapUs, gapUs);
    for (const IrqInterval& irq : irqs) {
      if (overlaps(gapBegin, gapEnd, irq)) {
        analysis.maxServeGapDuringIrqUs =
            std::max(analysis.maxServeGapDuringIrqUs, gapUs);
        break;
      }
    }
  }
  return analysis;
}

std::string formatAnalysis(const TraceAnalysis& analysis) {
  std::string text;
  char line[224];
  std::snprintf(line, sizeof(line),
                "span=%.1fus events=%llu threads=%zu mean_idle=%.1f%%\n",
                analysis.spanUs,
                static_cast<unsigned long long>(analysis.recordCount),
                analysis.threads.size(), analysis.meanIdlePct);
  text += line;
  for (std::size_t t = 0; t < analysis.threads.size(); ++t) {
    const ThreadTraceStats& thread = analysis.threads[t];
    std::snprintf(line, sizeof(line),
                  "  cpu%02zu: tasks=%llu steals=%llu busy=%.1fus "
                  "idle=%.1fus (%.1f%% starved)\n",
                  t, static_cast<unsigned long long>(thread.tasksExecuted),
                  static_cast<unsigned long long>(thread.steals),
                  thread.busyUs, thread.idleUs, thread.idlePct);
    text += line;
  }
  std::snprintf(line, sizeof(line),
                "  serves=%llu served_tasks=%llu "
                "drains=%llu drained_tasks=%llu contended=%llu\n",
                static_cast<unsigned long long>(analysis.serveCount),
                static_cast<unsigned long long>(analysis.servedTasks),
                static_cast<unsigned long long>(analysis.drainCount),
                static_cast<unsigned long long>(analysis.drainedTasks),
                static_cast<unsigned long long>(analysis.contendedCount));
  text += line;
  std::snprintf(line, sizeof(line),
                "  steals=%llu task_starts=%llu steal_ratio=%.1f%%\n",
                static_cast<unsigned long long>(analysis.stealCount),
                static_cast<unsigned long long>(analysis.taskStartCount),
                100.0 * analysis.stealRatio);
  text += line;
  std::snprintf(line, sizeof(line),
                "  failed=%llu skipped=%llu cancellations=%llu\n",
                static_cast<unsigned long long>(analysis.taskFailedCount),
                static_cast<unsigned long long>(analysis.taskSkippedCount),
                static_cast<unsigned long long>(
                    analysis.graphCancelledCount));
  text += line;
  std::snprintf(line, sizeof(line),
                "  max_serve_gap=%.1fus max_serve_gap_during_irq=%.1fus "
                "irq_total=%.1fus (irqs=%llu)\n",
                analysis.maxServeGapUs, analysis.maxServeGapDuringIrqUs,
                analysis.irqTotalUs,
                static_cast<unsigned long long>(analysis.irqCount));
  text += line;
  return text;
}

std::string renderTimeline(const std::vector<TraceRecord>& records,
                           std::size_t numThreads) {
  constexpr std::size_t kCols = 72;
  if (records.empty()) return "(empty trace)\n";

  std::vector<TraceRecord> sortStorage;
  const std::vector<TraceRecord>& sorted = sortedView(records, sortStorage);
  const std::uint64_t t0 = sorted.front().timeNs;
  const std::uint64_t t1 = sorted.back().timeNs;
  const std::uint64_t span = t1 > t0 ? t1 - t0 : 1;

  std::vector<std::string> rows(numThreads + 1, std::string(kCols, ' '));
  std::string& kernelRow = rows[numThreads];

  const auto colOf = [&](std::uint64_t timeNs) {
    return std::min(kCols - 1,
                    static_cast<std::size_t>(
                        static_cast<double>(timeNs - t0) /
                        static_cast<double>(span) * (kCols - 1)));
  };
  const auto paint = [&](std::string& row, std::uint64_t beginNs,
                         std::uint64_t endNs, char mark, bool force) {
    for (std::size_t c = colOf(beginNs); c <= colOf(endNs); ++c) {
      if (force || row[c] == ' ') row[c] = mark;
    }
  };

  forEachWorkerInterval(
      sorted, numThreads, t1,
      [&](std::uint16_t stream, WorkerInterval kind, std::uint64_t beginNs,
          std::uint64_t endNs, bool /*closed*/) {
        // Busy wins over idle ('force'): a one-column task in a starved
        // stretch must stay visible.
        if (kind == WorkerInterval::Busy) {
          paint(rows[stream], beginNs, endNs, '#', true);
        } else {
          paint(rows[stream], beginNs, endNs, '.', false);
        }
      });
  for (const IrqInterval& irq : irqIntervals(sorted, t1))
    paint(kernelRow, irq.beginNs, irq.endNs, 'I', true);

  std::string text;
  char line[160];
  std::snprintf(line, sizeof(line),
                "timeline: %.1fus, ~%.1fus/col ('#' task, '.' idle, "
                "'I' kernel burst)\n",
                static_cast<double>(span) / 1000.0,
                static_cast<double>(span) / 1000.0 / (kCols - 1));
  text += line;
  for (std::size_t t = 0; t < numThreads; ++t) {
    std::snprintf(line, sizeof(line), "  cpu%02zu |%s|\n", t,
                  rows[t].c_str());
    text += line;
  }
  std::snprintf(line, sizeof(line), "  kern  |%s|\n", kernelRow.c_str());
  text += line;
  return text;
}

}  // namespace ats
