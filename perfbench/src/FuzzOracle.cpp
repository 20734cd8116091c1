//===- perfbench/src/FuzzOracle.cpp - the fuzz_oracle workload ------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded differential campaign over a batch of 216 KernelGen kernels
/// (every fourth one a nearMissSpec, so the offset analysis has proofs to
/// make; the rest random specs, with and without a mini-C rendering at the
/// campaign's share). Operation i generates kernel i and checks it on one
/// target (alpha, m88100, m68030 in turn) with fuzz::checkKernel
/// under the default OracleOptions; every result must be passed(). Four
/// threads each run one check at a time. A phase checks the batch pass
/// after pass; each pass is one segment. Each check is timed in calibrated
/// seconds against a speed probe its thread runs right after it.
///
/// The oracle's internals are not instrumented. A traced phase instead
/// replays, after each check, the same kernel's parseModule / compileC /
/// compileFunction / Interpreter::run calls in the oracle's order under
/// spans; the check's time minus the replayed calls' time is the oracle's
/// own cost (fuzz.oracle_self_s).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/CFront.h"
#include "fuzz/Oracle.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "target/TargetMachine.h"

#include <atomic>
#include <mutex>
#include <thread>

using namespace perfbench;
using namespace vpo;

namespace {

/// Kernels in the batch a phase checks pass after pass (72 per target);
/// the first pass is the canonical batch. Large enough that the figures
/// hardly hinge on how many of the rare kernels that send the exact
/// scheduler into a long search a seed draws, small enough for two or
/// more passes in 30 s, so that each kernel has a fastest check to choose.
constexpr uint64_t BatchSize = 216;
/// Checks run concurrently, each on one thread: more passes per run, and
/// every pass samples all of the machine's cores.
constexpr unsigned CheckThreads = 4;
/// Share of KernelSpec::random specs that have a mini-C rendering, drawn
/// as fuzz_coalesce draws them (0.508 over seeds 1-20000).
constexpr double CampaignCShare = 0.51;
/// Seed-independent kernel for the set-up warm-up check.
constexpr uint64_t WarmupKernelSeed = 0x5eed;

const char *const Targets[] = {"alpha", "m88100", "m68030"};

/// Kernel \p Op of the batch for \p Seed, drawn by stratum so that every
/// seed's batch has the same make-up: every fourth kernel a near-miss spec
/// (these render to RTL only); of the random specs, a CampaignCShare
/// spread evenly over the batch have a mini-C rendering, whose second
/// program doubles the oracle's work, and the rest are RTL-only. A random
/// kernel is the first seed-derived KernelSpec::random draw of its stratum.
fuzz::KernelSpec specFor(uint64_t Seed, uint64_t Op) {
  uint64_t Base = splitmix(splitmix(Seed) ^ Op);
  if (Op % 4 == 3)
    return fuzz::nearMissSpec(Base);
  uint64_t Slot = Op - Op / 4; // index among the random kernels
  bool WantC = uint64_t(double(Slot + 1) * CampaignCShare) >
               uint64_t(double(Slot) * CampaignCShare);
  for (uint64_t Draw = 0;; ++Draw) {
    fuzz::KernelSpec S = fuzz::KernelSpec::random(splitmix(Base + Draw));
    if (fuzz::generateKernel(S).CSource.empty() != WantC)
      return S;
  }
}

/// Re-issues the oracle's calls into the layers for one program rendering
/// (fuzz/Oracle.cpp checkProgram), each under its span: per configuration
/// one plain and two remark-sink compiles, then every trip count x skew
/// scenario on the reference baseline and the three engines.
void replayProgram(bool IsC, const fuzz::GeneratedKernel &K,
                   const std::string &Target,
                   const fuzz::OracleOptions &O, Lane *L, uint64_t Op,
                   std::map<std::string, double> *Counts,
                   PhaseInsts &Insts) {
  TargetMachine TM = makeTargetByName(Target);
  auto Make = [&]() -> std::unique_ptr<Module> {
    if (IsC) {
      ScopedSpan S(L, "frontend.compile_c", Op);
      return cc::compileC(K.CSource);
    }
    ScopedSpan S(L, "ir.parse", Op);
    std::vector<Diagnostic> Diags;
    return parseModule(K.IRText, Diags);
  };

  std::vector<PipelineConfig> Configs = fuzz::oracleConfigs();
  std::vector<std::unique_ptr<Module>> Mods;
  std::vector<Function *> Fns;
  for (const PipelineConfig &Cfg : Configs) {
    for (int Rep = 0; Rep < 3; ++Rep) {
      std::unique_ptr<Module> M = Make();
      if (!M || M->functions().empty())
        return;
      Function *F = M->functions().front().get();
      CompileOptions CO = Cfg.Options;
      CO.GuardRails = true;
      CO.SchedAuditBudget = O.SchedAuditBudget;
      CollectingRemarkSink Sink;
      if (Rep > 0)
        CO.Remarks = &Sink;
      CompileReport R = compileTraced(*F, TM, CO, L, Op);
      if (Rep == 0) {
        if (Counts)
          addCompileCounts(*Counts, R, *F);
        Mods.push_back(std::move(M));
        Fns.push_back(F);
      }
    }
  }

  enum class Engine { Reference, Predecode, JIT };
  auto Run = [&](Function &F, int64_t N, size_t Skew, Engine E) {
    Memory Mem(O.ArenaBytes);
    std::vector<int64_t> Args = fuzz::setupKernelMemory(K.Spec, N, Mem, Skew);
    InterpreterOptions IO;
    IO.Predecode = E != Engine::Reference;
    IO.MaxSteps = O.MaxInsts;
    CollectingRemarkSink Sink;
    if (E == Engine::JIT) {
      IO.EnableJIT = true;
      IO.JITHotThreshold = 2;
      IO.Remarks = &Sink;
    }
    Interpreter Interp(TM, Mem, IO);
    RunResult R;
    {
      ScopedSpan S(L, E == Engine::JIT ? "jit.run" : "sim.run", Op);
      R = Interp.run(F, Args);
    }
    if (E == Engine::JIT) {
      Insts.Jit += R.Instructions;
      if (Counts)
        addJitCounts(*Counts, Sink);
    } else {
      Insts.Sim += R.Instructions;
      if (Counts && E == Engine::Predecode)
        addSimCounts(*Counts, R);
    }
  };

  for (int64_t N : K.Spec.TripCounts)
    for (size_t Skew : {size_t(0), size_t(3)}) {
      Run(*Fns[0], N, Skew, Engine::Reference);
      for (Function *F : Fns) {
        Run(*F, N, Skew, Engine::Predecode);
        Run(*F, N, Skew, Engine::Reference);
        if (O.CheckJIT)
          Run(*F, N, Skew, Engine::JIT);
      }
    }
}

class FuzzOracle final : public WorkloadRunner {
public:
  explicit FuzzOracle(const Options &O) : Seed(O.Seed) {}

  const char *opNoun() const override { return "check"; }

  /// Derives the batch's kernel specs and runs one warm-up check of a
  /// fixed kernel, so lazy process state is initialised. \returns
  /// calibrated seconds.
  double setup(bool Keep) override {
    Clock::time_point T0 = Clock::now();
    std::vector<fuzz::KernelSpec> NewSpecs;
    for (uint64_t I = 0; I < BatchSize; ++I)
      NewSpecs.push_back(specFor(Seed, I));
    fuzz::OracleOptions O;
    O.Targets = {Targets[0]};
    fuzz::OracleResult R =
        fuzz::checkKernel(fuzz::generateKernel(WarmupKernelSeed), O);
    if (!R.passed())
      SetupFailures.push_back("warm-up check: " + R.render());
    double Secs = calibrated(secondsBetween(T0, Clock::now()), probeSeconds());
    if (Keep)
      Specs = std::move(NewSpecs);
    return Secs;
  }

  PhaseResult phase(double Seconds, Tracer *T,
                    const std::function<void()> &Between) override {
    PhaseResult Result;
    std::vector<Lane *> Lanes(CheckThreads, nullptr);
    if (T)
      for (Lane *&L : Lanes)
        L = T->newLane();
    uint64_t PhaseComparisons = 0;
    // Per kernel, each check's calibrated and wall seconds.
    std::vector<std::vector<double>> CheckSeconds(BatchSize);
    std::vector<std::vector<double>> WallSeconds(BatchSize);
    std::vector<double> Probes;
    uint64_t Passes = 0;
    std::mutex Mu; // guards Result, the timings and PhaseComparisons
    Clock::time_point Start = Clock::now();
    // Passes over the batch; after the first, the phase may stop mid-pass
    // (a partial pass still adds each check's time).
    for (uint64_t Pass = 0;; ++Pass) {
      std::atomic<uint64_t> Next{0};
      std::atomic<bool> Stopped{false};
      auto Worker = [&](Lane *L) {
        for (uint64_t I; (I = Next.fetch_add(1)) < BatchSize;) {
          if (Pass > 0 && secondsBetween(Start, Clock::now()) >= Seconds) {
            Stopped = true;
            return;
          }
          uint64_t Op = Pass * BatchSize + I;
          fuzz::OracleOptions O;
          O.Targets = {Targets[I % 3]};
          Clock::time_point C0 = Clock::now();
          fuzz::OracleResult R;
          fuzz::GeneratedKernel K;
          {
            ScopedSpan Root(L, "fuzz.op", Op);
            {
              ScopedSpan S(L, "fuzz.generate", Op);
              K = fuzz::generateKernel(Specs[I]);
            }
            ScopedSpan S(L, "fuzz.check", Op);
            R = fuzz::checkKernel(K, O);
          }
          double Secs = secondsBetween(C0, Clock::now());
          double Probe = probeSeconds();
          std::map<std::string, double> Counts;
          PhaseInsts Insts;
          if (L && R.passed()) {
            ScopedSpan S(L, "fuzz.replay", Op);
            replayProgram(false, K, O.Targets[0], O, L, Op, &Counts, Insts);
            if (O.CheckCSource && !K.CSource.empty())
              replayProgram(true, K, O.Targets[0], O, L, Op, &Counts, Insts);
          }
          std::lock_guard<std::mutex> G(Mu);
          CheckSeconds[I].push_back(calibrated(Secs, Probe));
          WallSeconds[I].push_back(Secs);
          Probes.push_back(Probe);
          ++Result.Attempted;
          PhaseComparisons += R.Comparisons;
          Result.Insts.Sim += Insts.Sim;
          Result.Insts.Jit += Insts.Jit;
          if (Pass == 0) {
            Result.Counts["fuzz.comparisons"] += R.Comparisons;
            for (const auto &[Key, V] : Counts)
              Result.Counts[Key] += V;
          }
          if (!R.passed())
            Result.fail("kernel " + std::to_string(I) + " on " + O.Targets[0] +
                    ": " + R.render());
        }
      };
      std::vector<std::thread> Pool;
      for (unsigned W = 1; W < CheckThreads; ++W)
        Pool.emplace_back(Worker, Lanes[W]);
      Worker(Lanes[0]);
      for (std::thread &Th : Pool)
        Th.join();
      if (Stopped)
        break;
      ++Passes;
      Between();
    }
    for (const std::string &N : SetupFailures)
      Result.fail(N);
    SetupFailures.clear();
    Result.OpsPerS = fastestRate(CheckSeconds);
    Result.P50Ms = fastestQuantile(CheckSeconds, 0.5) * 1e3;
    Result.P90Ms = fastestQuantile(CheckSeconds, 0.9) * 1e3;
    Result.Extra["passes"] = double(Passes);
    Result.Extra["probe_ms"] = quantile(Probes, 0.5) * 1e3;
    Result.Extra["wall_checks_per_s"] = fastestRate(WallSeconds);
    Result.Extra["wall_check_p50_ms"] = fastestQuantile(WallSeconds, 0.5) * 1e3;
    Result.Extra["wall_check_p90_ms"] = fastestQuantile(WallSeconds, 0.9) * 1e3;
    finishCounts(Result.Counts);
    if (T) {
      std::map<std::string, LayerTime> Times = T->layerTimes();
      auto Total = [&Times](const char *N) {
        auto It = Times.find(N);
        return It == Times.end() ? 0.0 : It->second.TotalSeconds;
      };
      double Replayed = Total("ir.parse") + Total("frontend.compile_c") +
                        Total("pipeline.compile") + Total("sim.run") +
                        Total("jit.run");
      double Ops = double(Result.Attempted);
      Result.Layer["fuzz.generate_s"] = Total("fuzz.generate") / Ops;
      Result.Layer["fuzz.check_s"] = Total("fuzz.check") / Ops;
      Result.Layer["fuzz.comparisons_per_s"] =
          double(PhaseComparisons) / Total("fuzz.check");
      Result.Layer["fuzz.oracle_self_s"] =
          (Total("fuzz.check") - Replayed) / Ops;
      addLayerTimes(Result.Layer, *T, Result.Attempted, Result.Insts);
    }
    return Result;
  }

private:
  uint64_t Seed;
  std::vector<fuzz::KernelSpec> Specs;
  std::vector<std::string> SetupFailures;
};

} // namespace

std::unique_ptr<WorkloadRunner> perfbench::makeFuzzOracle(const Options &O) {
  return std::make_unique<FuzzOracle>(O);
}
