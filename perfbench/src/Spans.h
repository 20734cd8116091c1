//===- perfbench/src/Spans.h - benchmark-side span recorder -----*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into each library
/// layer. Nothing inside the libraries is instrumented: a span opens just
/// before the benchmark calls, say, compileFunction and closes when it
/// returns. Spans of one operation (a matrix cell, an oracle check, a
/// service request) share an operation id and nest through parent links,
/// so a layer's self time is its duration minus its children's.
///
/// Each thread records into its own Lane, so recording takes no lock. A
/// null Lane pointer is the untraced mode: ScopedSpan then reads no clock
/// and stores nothing, which keeps the untraced run's code path the same.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_SPANS_H
#define VPO_PERFBENCH_SPANS_H

#include "support/Trace.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct SpanRecord {
  const char *Name = ""; ///< layer-qualified, e.g. "sim.run"; static storage
  uint64_t Op = 0;       ///< operation id shared by the spans of one op
  int32_t Parent = -1;   ///< index into the lane, -1 for a root
  Clock::time_point Begin, End;
};

/// One thread's span buffer.
class Lane {
public:
  explicit Lane(unsigned Id) : Id(Id) {}

  unsigned id() const { return Id; }
  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Opens a span as a child of the innermost open one. \returns its index.
  int32_t open(const char *Name, uint64_t Op);
  void close(int32_t Index);

  /// Records an already-measured child of the innermost open span (used
  /// for the per-pass times CompileReport::Passes carries, laid out back
  /// to back from \p Begin).
  void addChild(const char *Name, uint64_t Op, Clock::time_point Begin,
                double Seconds);

private:
  unsigned Id;
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Stack;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when the lane is null (untraced runs).
class ScopedSpan {
public:
  ScopedSpan(Lane *L, const char *Name, uint64_t Op)
      : L(L), Index(L ? L->open(Name, Op) : -1) {}
  ~ScopedSpan() {
    if (L)
      L->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Lane *L;
  int32_t Index;
};

/// Per-name totals over every lane.
struct LayerTime {
  uint64_t Spans = 0;
  double TotalSeconds = 0; ///< sum of span durations
  double SelfSeconds = 0;  ///< minus the time covered by child spans
};

/// Owns the lanes of one traced phase.
class Tracer {
public:
  /// \returns a lane for the calling thread's exclusive use.
  Lane *newLane();

  /// Self and total time per span name.
  std::map<std::string, LayerTime> layerTimes() const;

  /// Durations (seconds) of every span named \p Name.
  std::vector<double> durations(const char *Name) const;

  /// Chrome trace-event document through support/Trace: one tid per lane,
  /// the operation id and parent span in each event's args.
  vpo::TraceFile toTraceFile() const;

private:
  mutable std::mutex Mu; ///< guards Lanes (creation only)
  std::deque<Lane> Lanes;
  Clock::time_point Epoch = Clock::now();
};

} // namespace perfbench

#endif // VPO_PERFBENCH_SPANS_H
