//===- perfbench/src/PaperMatrix.cpp - the paper_matrix workload ----------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation matrix: the 7 Table I workloads x the 4
/// paperConfigs() columns x {alpha, m88100, m68030} = 84 cells at
/// paperSetup() sizes, run on a fixed pool of threads. Each cell repeats
/// bench::measureCell's sequence — build, set up, golden reference,
/// compile, cycle-simulate, golden diff, functional-engine cross-check —
/// with a span around every call into a layer. Rounds of all 84 cells run
/// on the pool until the phase time is up; each round is one segment, and
/// the first is the canonical batch the counts come from. Each cell is
/// timed in calibrated seconds against a speed probe its thread runs right
/// after it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchUtils.h"
#include "MatrixRunner.h"

#include "ir/Function.h"
#include "workloads/Workload.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace perfbench;
using namespace vpo;

namespace {

/// Fixed pool size: the container's core count. perfbench/README.md
/// explains why the 1-thread figure is reported beside it.
constexpr unsigned DefaultThreads = 4;
/// paperConfigs() index of "coalesce loads+stores", the config behind
/// gen_cycles_geomean (and, on m68030, table4's "with-profit" column).
constexpr size_t FullConfig = 3;

struct MatrixSpec {
  std::string Workload;
  const TargetMachine *TM = nullptr;
  size_t Config = 0;
  CompileOptions Options;
};

struct CellOutcome {
  bool Verified = false;
  std::string Why;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t MemRefs = 0;
  uint64_t CacheMisses = 0;
  CoalesceStats Coalesce;
  uint64_t JitInstructions = 0;
  std::map<std::string, double> Counts;
};

/// One cell, in bench::measureCell's order. \p L null = untraced.
CellOutcome runCell(const Workload &W, const TargetMachine &TM,
                    const CompileOptions &CO, const SetupOptions &SO,
                    Lane *L, uint64_t Op) {
  CellOutcome Out;
  Module Mod;
  Function *F = W.build(Mod);
  Memory Mem;
  SetupResult S;
  {
    ScopedSpan Sp(L, "workloads.setup", Op);
    S = W.setup(Mem, SO);
  }
  const size_t Used = Mem.usedBytes();

  // The golden arena is reused per thread, as in measureCell: only the
  // span a previous cell may have dirtied past Used is re-zeroed.
  static thread_local std::vector<uint8_t> Golden;
  static thread_local size_t GoldenHigh = 0;
  int64_t ExpectedRet = 0;
  {
    ScopedSpan Sp(L, "workloads.golden", Op);
    if (Golden.size() != Mem.size()) {
      Golden.assign(Mem.size(), 0);
      GoldenHigh = 0;
    }
    std::memcpy(Golden.data(), Mem.data(), Used);
    if (GoldenHigh > Used)
      std::memset(Golden.data() + Used, 0, GoldenHigh - Used);
    GoldenHigh = Used;
    ExpectedRet = W.golden(Golden.data(), SO, S);
  }

  CompileReport Report = compileTraced(*F, TM, CO, L, Op);
  addCompileCounts(Out.Counts, Report, *F);
  Out.Coalesce = Report.Coalesce;

  Interpreter Interp(TM, Mem, InterpreterOptions());
  RunResult R;
  {
    ScopedSpan Sp(L, "sim.run", Op);
    R = Interp.run(*F, S.Args);
  }
  addSimCounts(Out.Counts, R);
  Out.Cycles = R.Cycles;
  Out.Instructions = R.Instructions;
  Out.MemRefs = R.MemRefs();
  Out.CacheMisses = R.Cache.Misses;
  {
    ScopedSpan Sp(L, "bench.diff", Op);
    Out.Verified = R.ok() && R.ReturnValue == ExpectedRet &&
                   std::memcmp(Mem.data(), Golden.data(), Used) == 0 &&
                   bench::allZero(Mem.data() + Used, Mem.data() + Mem.size());
  }
  if (!Out.Verified)
    Out.Why = R.ok() ? "golden diff failed" : std::string("run ") +
                                                 runStatusName(R.Exit);

  // Functional tiered engine on a fresh arena must reproduce the
  // cycle-accurate run's architectural result exactly. The remark sink
  // (traced runs) only collects the closing jit-summary.
  Memory JMem(Mem.size());
  SetupResult JS;
  {
    ScopedSpan Sp(L, "workloads.setup", Op);
    JS = W.setup(JMem, SO);
  }
  InterpreterOptions JO;
  JO.EnableJIT = true;
  CollectingRemarkSink Sink;
  if (L)
    JO.Remarks = &Sink;
  Interpreter JInterp(TM, JMem, JO);
  RunResult JR;
  {
    ScopedSpan Sp(L, "jit.run", Op);
    JR = JInterp.run(*F, JS.Args);
  }
  Out.JitInstructions = JR.Instructions;
  if (L)
    addJitCounts(Out.Counts, Sink);
  bool Agrees;
  {
    ScopedSpan Sp(L, "bench.diff", Op);
    Agrees = JR.Exit == R.Exit && JR.ReturnValue == R.ReturnValue &&
             JR.Instructions == R.Instructions && JR.Loads == R.Loads &&
             JR.Stores == R.Stores &&
             std::memcmp(JMem.data(), Mem.data(), Mem.size()) == 0;
  }
  if (Out.Verified && !Agrees)
    Out.Why = "functional engine disagrees with the cycle engine";
  Out.Verified = Out.Verified && Agrees;
  return Out;
}

std::vector<MatrixSpec> buildSpecs(const std::vector<TargetMachine> &TMs) {
  std::vector<PipelineConfig> Configs = paperConfigs();
  std::vector<MatrixSpec> Specs;
  // Workload-major, so convolution's long cells start first and the end
  // of a round is not left waiting on one of them.
  for (const std::string &W : bench::tableWorkloads())
    for (const TargetMachine &TM : TMs)
      for (size_t C = 0; C < Configs.size(); ++C)
        Specs.push_back(MatrixSpec{W, &TM, C, Configs[C].Options});
  return Specs;
}

std::vector<TargetMachine> paperTargets() {
  std::vector<TargetMachine> TMs;
  TMs.push_back(makeAlphaTarget());
  TMs.push_back(makeM88100Target());
  TMs.push_back(makeM68030Target());
  return TMs;
}

class PaperMatrix final : public WorkloadRunner {
public:
  explicit PaperMatrix(const Options &O)
      : Seed(O.Seed), Threads(O.Threads ? O.Threads : DefaultThreads) {}

  const char *opNoun() const override { return "cell"; }

  /// Builds targets and the 84 cell specs, then runs one small cell per
  /// workload so lazy process state (program cache, JIT probe, golden
  /// buffers) is warm before timing. A set-up failure fails the run.
  /// \returns calibrated seconds.
  double setup(bool Keep) override {
    Clock::time_point T0 = Clock::now();
    std::vector<TargetMachine> TMs = paperTargets();
    std::vector<MatrixSpec> NewSpecs = buildSpecs(TMs);
    SetupOptions Small;
    Small.Seed = Seed;
    for (const std::string &Name : bench::tableWorkloads()) {
      auto W = makeWorkloadByName(Name);
      CellOutcome C = runCell(*W, TMs[0], paperConfigs()[FullConfig].Options,
                              Small, nullptr, 0);
      if (!C.Verified)
        SetupFailures.push_back("warm-up " + Name + ": " + C.Why);
    }
    double Secs = calibrated(secondsBetween(T0, Clock::now()), probeSeconds());
    if (Keep) {
      Targets = std::move(TMs); // the specs point into the moved buffer
      Specs = std::move(NewSpecs);
      SO = bench::paperSetup();
      SO.Seed = Seed;
    }
    return Secs;
  }

  PhaseResult phase(double Seconds, Tracer *T,
                    const std::function<void()> &Between) override {
    PhaseResult Result;
    const size_t Batch = Specs.size();
    std::vector<CellOutcome> Round0(Batch);
    // Per cell, each run's calibrated and wall seconds.
    std::vector<std::vector<double>> CellSeconds(Batch);
    std::vector<std::vector<double>> WallSeconds(Batch);
    std::vector<double> Probes, RoundRates;
    std::vector<Lane *> Lanes(Threads, nullptr);
    if (T)
      for (Lane *&L : Lanes)
        L = T->newLane();
    std::mutex Mu; // guards Result while merging per-thread results
    Clock::time_point Start = Clock::now();

    // Whole rounds only: a round runs every cell once on the pool and ends
    // when its last cell does.
    for (uint64_t Round = 0;
         Round == 0 || secondsBetween(Start, Clock::now()) < Seconds;
         ++Round) {
      std::atomic<size_t> Next{0};
      auto Worker = [&](Lane *L) {
        for (;;) {
          size_t I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= Batch)
            return;
          const MatrixSpec &Spec = Specs[I];
          uint64_t Op = Round * Batch + I;
          Clock::time_point C0 = Clock::now();
          CellOutcome Out;
          {
            ScopedSpan Root(L, "matrix.cell", Op);
            auto W = makeWorkloadByName(Spec.Workload);
            Out = runCell(*W, *Spec.TM, Spec.Options, SO, L, Op);
          }
          double Secs = secondsBetween(C0, Clock::now());
          double Probe = probeSeconds();
          std::lock_guard<std::mutex> G(Mu);
          CellSeconds[I].push_back(calibrated(Secs, Probe));
          WallSeconds[I].push_back(Secs);
          Probes.push_back(Probe);
          ++Result.Attempted;
          Result.Insts.Sim += Out.Instructions;
          Result.Insts.Jit += Out.JitInstructions;
          if (!Out.Verified)
            Result.fail(Spec.Workload + "/" + Spec.TM->name() + "/" +
                    paperConfigs()[Spec.Config].Name + ": " + Out.Why);
          if (Round == 0)
            Round0[I] = std::move(Out);
        }
      };
      Clock::time_point R0 = Clock::now();
      std::vector<std::thread> Pool;
      for (unsigned I = 1; I < Threads; ++I)
        Pool.emplace_back(Worker, Lanes[I]);
      Worker(Lanes[0]);
      for (std::thread &Th : Pool)
        Th.join();
      RoundRates.push_back(double(Batch) / secondsBetween(R0, Clock::now()));
      Between();
    }

    for (const std::string &N : SetupFailures)
      Result.fail(N);
    SetupFailures.clear();
    // The pool's throughput with every thread busy, each cell at its
    // fastest; the wall figure beside it includes each round's tail.
    Result.OpsPerS = double(Threads) * fastestRate(CellSeconds);
    Result.P50Ms = fastestQuantile(CellSeconds, 0.5) * 1e3;
    Result.P90Ms = fastestQuantile(CellSeconds, 0.9) * 1e3;
    Result.Extra["probe_ms"] = quantile(Probes, 0.5) * 1e3;
    Result.Extra["wall_cells_per_s"] = fastRate(RoundRates);
    Result.Extra["wall_cell_p50_ms"] = fastestQuantile(WallSeconds, 0.5) * 1e3;
    Result.Extra["wall_cell_p90_ms"] = fastestQuantile(WallSeconds, 0.9) * 1e3;
    // Counts in submission order, so they do not depend on scheduling.
    std::vector<double> FullCycles;
    for (size_t I = 0; I < Batch; ++I) {
      for (const auto &[K, V] : Round0[I].Counts)
        Result.Counts[K] += V;
      if (Specs[I].Config == FullConfig)
        FullCycles.push_back(double(Round0[I].Cycles));
    }
    finishCounts(Result.Counts);
    Result.Counts["gen_cycles_geomean"] = geomean(FullCycles);
    Result.Extra["threads"] = Threads;
    Result.Extra["rounds"] = double(RoundRates.size());
    if (T)
      addLayerTimes(Result.Layer, *T, Result.Attempted, Result.Insts);
    return Result;
  }

private:
  uint64_t Seed;
  unsigned Threads;
  std::vector<TargetMachine> Targets;
  std::vector<MatrixSpec> Specs;
  SetupOptions SO;
  std::vector<std::string> SetupFailures;
};

} // namespace

std::unique_ptr<WorkloadRunner> perfbench::makePaperMatrix(const Options &O) {
  return std::make_unique<PaperMatrix>(O);
}

double perfbench::probeGenCyclesGeomean(uint64_t Seed, bool &Ok) {
  std::vector<TargetMachine> TMs = paperTargets();
  CompileOptions CO = paperConfigs()[FullConfig].Options;
  SetupOptions Small;
  Small.Seed = Seed;
  std::vector<double> Cycles;
  Ok = true;
  for (const TargetMachine &TM : TMs)
    for (const std::string &Name : bench::tableWorkloads()) {
      auto W = makeWorkloadByName(Name);
      CellOutcome C = runCell(*W, TM, CO, Small, nullptr, 0);
      Ok = Ok && C.Verified;
      Cycles.push_back(double(C.Cycles));
    }
  return geomean(Cycles);
}

bool perfbench::checkHarnessAgreement(uint64_t Seed, unsigned Threads) {
  std::vector<TargetMachine> TMs = paperTargets();
  std::vector<MatrixSpec> Specs = buildSpecs(TMs);
  SetupOptions SO = bench::paperSetup();
  SO.Seed = Seed;
  std::vector<bench::CellSpec> HarnessSpecs;
  for (const MatrixSpec &S : Specs)
    HarnessSpecs.push_back(bench::CellSpec{
        S.Workload, paperConfigs()[S.Config].Name, S.TM, S.Options, SO, 0});
  bench::RunnerOptions RO;
  RO.Threads = Threads;
  bench::BenchReport Harness =
      bench::MatrixRunner(RO).run("perfbench", HarnessSpecs);

  bool Ok = true;
  for (size_t I = 0; I < Specs.size(); ++I) {
    auto W = makeWorkloadByName(Specs[I].Workload);
    CellOutcome Mine =
        runCell(*W, *Specs[I].TM, Specs[I].Options, SO, nullptr, I);
    const bench::Measurement &H = Harness.Cells[I].M;
    bool Same = Mine.Cycles == H.Cycles &&
                Mine.Instructions == H.Instructions &&
                Mine.MemRefs == H.MemRefs &&
                Mine.CacheMisses == H.CacheMisses &&
                Mine.Verified == H.Verified && Mine.Coalesce == H.Coalesce;
    std::printf("%-12s %-7s %-22s cycles %12llu harness %12llu %s\n",
                Specs[I].Workload.c_str(), Specs[I].TM->name().c_str(),
                paperConfigs()[Specs[I].Config].Name.c_str(),
                (unsigned long long)Mine.Cycles,
                (unsigned long long)H.Cycles, Same ? "same" : "DIFFERENT");
    Ok = Ok && Same && H.Verified;
  }
  return Ok;
}
