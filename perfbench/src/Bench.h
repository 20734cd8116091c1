//===- perfbench/src/Bench.h - workload runner interface --------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark provides, and the
/// statistics helpers they share.
///
/// A phase is a sequence of segments: paper_matrix rounds, fuzz_oracle
/// passes over its kernel batch, vpod_mixed time slices. The machine the
/// benchmark runs on is shared; its speed swings by up to 2x over minutes,
/// and interference only ever adds time. So host time is measured in
/// calibrated seconds against a speed probe: paper_matrix and fuzz_oracle
/// run it after each operation and take each operation's fastest
/// repetition; vpod_mixed keeps the CPUs from halting, samples the probe
/// during each segment and takes its figures from the faster segments
/// (perfbench/README.md, "How host time is measured").
/// Set-up repetitions run between segments, so their median samples the
/// whole run.
///
/// A run is: set-up, then one phase, untraced; or, with --trace 1, an
/// untraced phase followed by a traced phase of the same length, whose
/// difference is the tracing overhead. Count metrics are taken over the
/// workload's canonical batch — a fixed, seed-determined set of operations
/// that every phase completes — so they repeat exactly across runs, thread
/// counts and tracing modes.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_PERFBENCH_BENCH_H
#define VPO_PERFBENCH_BENCH_H

#include "Spans.h"

#include "pipeline/Pipeline.h"
#include "sim/Interpreter.h"
#include "support/Remark.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// paper_matrix worker threads (0 = the workload's fixed default).
  unsigned Threads = 0;
  std::string WorkDir; ///< scratch files (daemon socket, journal)
  std::string CountsOut; ///< write the canonical-batch counts here
  std::string TraceOut;  ///< write the Chrome trace here (traced runs)
  std::string ReportOut; ///< write the traced-run report here
};

/// Instructions executed under spans during a traced phase, the bases of
/// the sim.minsts_per_s and jit.minsts_per_s rates.
struct PhaseInsts {
  uint64_t Sim = 0;
  uint64_t Jit = 0;
};

/// The outcome of one timed phase.
struct PhaseResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< failed or unverified operations
  std::vector<std::string> FailureNotes; ///< first few, for stderr
  /// Host-time figures, from the faster segments (see the file comment).
  double OpsPerS = 0;
  double P50Ms = 0;
  double P90Ms = 0;
  /// Exactly repeatable counts over the canonical batch.
  std::map<std::string, double> Counts;
  /// Per-layer metrics (traced phases only).
  std::map<std::string, double> Layer;
  /// Instructions the engines executed inside traced spans.
  PhaseInsts Insts;
  /// Workload-specific end-to-end figures, printed in the report under
  /// their own names (e.g. cold_p50_ms).
  std::map<std::string, double> Extra;

  void fail(const std::string &Note) {
    ++Failed;
    if (FailureNotes.size() < 8)
      FailureNotes.push_back(Note);
  }
};

class WorkloadRunner {
public:
  virtual ~WorkloadRunner() = default;

  /// What one operation is ("cell", "check", "request").
  virtual const char *opNoun() const = 0;

  /// One set-up; \returns its seconds. A run sets up several times and
  /// reports the median; only the last call's state must survive (\p Keep).
  virtual double setup(bool Keep) = 0;

  /// Runs segments of operations for at least \p Seconds and at least the
  /// canonical batch, checking every output. \p T is null for untraced
  /// phases. \p Between runs after each segment, with no other benchmark
  /// thread running.
  virtual PhaseResult phase(double Seconds, Tracer *T,
                            const std::function<void()> &Between) = 0;

  /// Releases what the kept set-up holds (daemons, files).
  virtual void teardown() {}
};

std::unique_ptr<WorkloadRunner> makePaperMatrix(const Options &O);
std::unique_ptr<WorkloadRunner> makeFuzzOracle(const Options &O);
std::unique_ptr<WorkloadRunner> makeVpodMixed(const Options &O);

/// Geometric mean of simulated cycles over the 21 workload x target pairs
/// under full loads+stores coalescing, at the small probe size; the code
/// quality guard the workloads other than paper_matrix report. Sets
/// \p Ok false if any probe cell fails verification.
double probeGenCyclesGeomean(uint64_t Seed, bool &Ok);

/// Compares the benchmark's own paper-matrix cells with the table
/// harnesses' measureCell (bench/MatrixRunner) at \p Seed; prints any
/// mismatch. \returns true when every cell's counts agree exactly.
bool checkHarnessAgreement(uint64_t Seed, unsigned Threads);

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
inline uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// Throughput of the faster segments: the 75th percentile.
double fastRate(const std::vector<double> &SegmentRates);
/// Mean of the \p Share smallest values of \p V.
double trimmedMean(std::vector<double> V, double Share);
/// Quantile \p Q over operations repeated once per segment, taking each
/// operation's fastest time (\p Times[op] lists its times).
double fastestQuantile(const std::vector<std::vector<double>> &Times,
                       double Q);
/// Operations per second over every operation, each at its fastest time.
double fastestRate(const std::vector<std::vector<double>> &Times);

/// Peak resident set size of this process and its waited-for children, MB.
double peakRssMB();

// --- machine speed ----------------------------------------------------------

/// Seconds a fixed piece of the benchmark's own work takes on the calling
/// thread right now: twice, format 800 lines of IR-like text, key a hash
/// map by their prefixes, sort them and search each. Like the compilers
/// and oracles it calibrates, it allocates, copies and compares strings;
/// it calls only the C++ standard library, so no change to the program
/// moves it. About 1 ms on the machine the benchmark was built on.
double probeSeconds();

/// The probe time that calibrated seconds are measured against.
constexpr double ProbeNominalSeconds = 1e-3;

/// \p Secs of wall time, spent while the probe took \p ProbeSecs, in
/// calibrated seconds: the time it would have taken had the machine run the
/// probe in ProbeNominalSeconds.
inline double calibrated(double Secs, double ProbeSecs) {
  return ProbeSecs > 0 ? Secs * ProbeNominalSeconds / ProbeSecs : Secs;
}

/// While alive, runs one idle-priority (SCHED_IDLE) spinning thread per
/// CPU, so that no CPU halts: a thread woken on a busy CPU preempts the
/// spinner at once, where waking a halted virtual CPU waits for the host's
/// scheduler, whose delay follows other tenants' load.
class KeepCpusAwake {
public:
  KeepCpusAwake();
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake &) = delete;
  KeepCpusAwake &operator=(const KeepCpusAwake &) = delete;

private:
  void stop();

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Spinners;
};

// --- calls into the layers, with spans --------------------------------------

/// compileFunction under a "pipeline.compile" span. Traced (\p L non-null)
/// compiles also set CompileOptions::ProfilePasses and record each pass as
/// a "pass.<name>" child span.
vpo::CompileReport compileTraced(vpo::Function &F,
                                 const vpo::TargetMachine &TM,
                                 vpo::CompileOptions CO, Lane *L,
                                 uint64_t Op);

/// Adds one compile's counts (coalesce.*, analysis.*, transform.*,
/// sched.*, pipeline.compiles/incidents) into \p C.
void addCompileCounts(std::map<std::string, double> &C,
                      const vpo::CompileReport &R, const vpo::Function &F);

/// Adds one cycle-engine run's counts (sim.*) into \p C.
void addSimCounts(std::map<std::string, double> &C, const vpo::RunResult &R);

/// Adds the jit-summary remarks in \p Sink (jit.*) into \p C.
void addJitCounts(std::map<std::string, double> &C,
                  const vpo::CollectingRemarkSink &Sink);

/// Derives the ratio metrics (sim.cpi, miss ratios, coalesce.accept_ratio)
/// from the raw counts, in place.
void finishCounts(std::map<std::string, double> &C);

/// Fills the per-layer time metrics the workloads share (sim.*, jit.*,
/// pipeline.*, pass.*, ir.*, frontend.*, workloads.*) from \p T: self
/// seconds per operation over \p Ops operations, the median compile, and
/// the engines' Minsts/s over \p Insts.
void addLayerTimes(std::map<std::string, double> &Layer, const Tracer &T,
                   uint64_t Ops, const PhaseInsts &Insts);

} // namespace perfbench

#endif // VPO_PERFBENCH_BENCH_H
