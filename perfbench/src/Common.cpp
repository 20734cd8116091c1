//===- perfbench/src/Common.cpp - shared statistics and layer calls -------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Function.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unordered_map>

using namespace perfbench;
using namespace vpo;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double perfbench::fastRate(const std::vector<double> &SegmentRates) {
  return quantile(SegmentRates, 0.75);
}

double perfbench::trimmedMean(std::vector<double> V, double Share) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  V.resize(std::max<size_t>(1, size_t(double(V.size()) * Share)));
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / double(V.size());
}

namespace {

/// Each operation's fastest time.
std::vector<double> fastest(const std::vector<std::vector<double>> &Times) {
  std::vector<double> Best;
  for (const std::vector<double> &T : Times)
    if (!T.empty())
      Best.push_back(*std::min_element(T.begin(), T.end()));
  return Best;
}

} // namespace

double perfbench::fastestQuantile(const std::vector<std::vector<double>> &Times,
                                  double Q) {
  return quantile(fastest(Times), Q);
}

double perfbench::fastestRate(const std::vector<std::vector<double>> &Times) {
  double Mean = trimmedMean(fastest(Times), 1.0);
  return Mean > 0 ? 1 / Mean : 0;
}

double perfbench::peakRssMB() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return double(std::max(Self.ru_maxrss, Kids.ru_maxrss)) / 1024.0;
}

namespace {
/// Where the probe's result goes, so the compiler keeps its work.
std::atomic<uint64_t> ProbeSink{0};
} // namespace

double perfbench::probeSeconds() {
  constexpr int Rounds = 2, Lines = 800;
  Clock::time_point T0 = Clock::now();
  size_t Sum = 0;
  uint64_t X = 5;
  for (int Round = 0; Round < Rounds; ++Round) {
    std::vector<std::string> Text;
    std::unordered_map<std::string, int> Names;
    char Buf[64];
    for (int I = 0; I < Lines; ++I) {
      X = splitmix(X);
      std::snprintf(Buf, sizeof(Buf), "%%v%llu = add i32 %%r%d, %d",
                    (unsigned long long)(X % 997), I, int(X % 31));
      Text.emplace_back(Buf);
      Names[Text.back().substr(0, 8)] += I;
    }
    std::sort(Text.begin(), Text.end());
    Sum += Names.size();
    for (const std::string &Line : Text)
      Sum += Line.find("add") + Line.size();
  }
  ProbeSink.store(Sum, std::memory_order_relaxed);
  return secondsBetween(T0, Clock::now());
}

KeepCpusAwake::KeepCpusAwake() {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  try {
    for (unsigned I = 0; I < N; ++I)
      Spinners.emplace_back([this] {
        // A spinner that cannot drop to idle priority would compete with
        // the workload's threads, so it ends instead.
        sched_param P{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &P) != 0)
          return;
        while (!Stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#elif defined(__aarch64__)
          asm volatile("yield");
#endif
        }
      });
  } catch (...) {
    stop();
    throw;
  }
}

KeepCpusAwake::~KeepCpusAwake() { stop(); }

void KeepCpusAwake::stop() {
  Stop = true;
  for (std::thread &T : Spinners)
    if (T.joinable())
      T.join();
}

namespace {

/// Span name for a pipeline pass. Both cleanup runs count as one layer.
const char *passSpanName(const std::string &Pass) {
  static const std::pair<const char *, const char *> Known[] = {
      {"strength-reduce", "pass.strength-reduce"},
      {"recurrence", "pass.recurrence"},
      {"scalar-replace", "pass.scalar-replace"},
      {"coalesce", "pass.coalesce"},
      {"cleanup", "pass.cleanup"},
      {"cleanup-post-legalize", "pass.cleanup"},
      {"legalize", "pass.legalize"},
      {"schedule", "pass.schedule"}};
  for (const auto &[Name, Span] : Known)
    if (Pass == Name)
      return Span;
  return "pass.other";
}

uint64_t remarkArg(const Remark &R, const char *Key) {
  for (const auto &[K, V] : R.Args)
    if (std::strcmp(K, Key) == 0)
      return std::strtoull(V.c_str(), nullptr, 10);
  return 0;
}

} // namespace

CompileReport perfbench::compileTraced(Function &F, const TargetMachine &TM,
                                       CompileOptions CO, Lane *L,
                                       uint64_t Op) {
  CO.ProfilePasses = L != nullptr;
  ScopedSpan S(L, "pipeline.compile", Op);
  Clock::time_point Begin = Clock::now();
  CompileReport R = compileFunction(F, TM, CO);
  if (L)
    for (const CompileReport::PassProfile &P : R.Passes) {
      L->addChild(passSpanName(P.Pass), Op, Begin, P.Seconds);
      Begin += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(P.Seconds));
    }
  return R;
}

void perfbench::addCompileCounts(std::map<std::string, double> &C,
                                 const CompileReport &R, const Function &F) {
  const CoalesceStats &S = R.Coalesce;
  C["pipeline.compiles"] += 1;
  C["pipeline.incidents"] += double(R.Incidents.size());
  C["coalesce.loops_examined"] += S.LoopsExamined;
  C["coalesce.loops_transformed"] += S.LoopsTransformed;
  C["coalesce.narrow_refs_removed"] +=
      S.NarrowLoadsRemoved + S.NarrowStoresRemoved;
  C["coalesce.check_insts"] += S.CheckInstructions;
  C["coalesce.rejected_profitability"] += S.LoopsRejectedProfitability;
  C["analysis.alias_pairs_proven"] += S.AliasPairsProvenDisjoint;
  C["analysis.alias_pairs_deferred"] += S.AliasPairsDeferred;
  C["transform.loops_unrolled"] += S.LoopsUnrolled;
  size_t Insts = 0;
  for (const auto &BB : F.blocks())
    Insts += BB->size();
  C["transform.static_insts"] += double(Insts);
  C["sched.blocks_scheduled"] += R.BlocksScheduled;
}

void perfbench::addSimCounts(std::map<std::string, double> &C,
                             const RunResult &R) {
  C["sim.instructions"] += double(R.Instructions);
  C["sim.cycles"] += double(R.Cycles);
  C["sim.memrefs"] += double(R.MemRefs());
  C["sim.load_bytes"] += double(R.LoadBytes);
  C["sim.store_bytes"] += double(R.StoreBytes);
  C["sim.dcache_accesses"] += double(R.Cache.Accesses);
  C["sim.dcache_misses"] += double(R.Cache.Misses);
  C["sim.icache_accesses"] += double(R.ICache.Accesses);
  C["sim.icache_misses"] += double(R.ICache.Misses);
}

void perfbench::addJitCounts(std::map<std::string, double> &C,
                             const CollectingRemarkSink &Sink) {
  for (const Remark &R : Sink.remarks()) {
    if (std::strcmp(R.Reason, "jit-summary") != 0)
      continue;
    C["jit.blocks_compiled"] += double(remarkArg(R, "blocks-compiled"));
    C["jit.bytes_emitted"] += double(remarkArg(R, "bytes-emitted"));
    C["jit.promotions"] += double(remarkArg(R, "promotions"));
    C["jit.native_entries"] += double(remarkArg(R, "native-entries"));
    C["jit.deopts"] += double(remarkArg(R, "deopt-budget") +
                              remarkArg(R, "deopt-cold"));
    C["jit.native_faults"] += double(remarkArg(R, "native-faults"));
  }
}

void perfbench::finishCounts(std::map<std::string, double> &C) {
  auto Ratio = [&C](const char *Out, const char *Num, const char *Den) {
    double D = C[Den];
    C[Out] = D > 0 ? C[Num] / D : 0;
  };
  Ratio("sim.cpi", "sim.cycles", "sim.instructions");
  Ratio("sim.dcache_miss_ratio", "sim.dcache_misses", "sim.dcache_accesses");
  Ratio("sim.icache_miss_ratio", "sim.icache_misses", "sim.icache_accesses");
  Ratio("coalesce.accept_ratio", "coalesce.loops_transformed",
        "coalesce.loops_examined");
}

void perfbench::addLayerTimes(std::map<std::string, double> &Layer,
                              const Tracer &T, uint64_t Ops,
                              const PhaseInsts &Insts) {
  std::map<std::string, LayerTime> Times = T.layerTimes();
  auto Self = [&Times](const char *Name) {
    auto It = Times.find(Name);
    return It == Times.end() ? 0.0 : It->second.SelfSeconds;
  };
  auto Total = [&Times](const char *Name) {
    auto It = Times.find(Name);
    return It == Times.end() ? 0.0 : It->second.TotalSeconds;
  };
  double N = Ops ? double(Ops) : 1.0;
  Layer["sim.run_s"] = Self("sim.run") / N;
  Layer["sim.minsts_per_s"] =
      Self("sim.run") > 0 ? double(Insts.Sim) / Self("sim.run") / 1e6 : 0;
  Layer["jit.run_s"] = Self("jit.run") / N;
  Layer["jit.minsts_per_s"] =
      Self("jit.run") > 0 ? double(Insts.Jit) / Self("jit.run") / 1e6 : 0;
  Layer["pipeline.compile_s"] = Total("pipeline.compile") / N;
  Layer["pipeline.self_s"] = Self("pipeline.compile") / N;
  Layer["pipeline.compile_p50_ms"] =
      quantile(T.durations("pipeline.compile"), 0.5) * 1e3;
  for (const char *P : {"strength-reduce", "coalesce", "cleanup", "legalize",
                        "schedule"})
    Layer[std::string("pass.") + P + "_s"] =
        Self((std::string("pass.") + P).c_str()) / N;
  Layer["workloads.setup_s"] = Self("workloads.setup") / N;
  Layer["workloads.golden_s"] = Self("workloads.golden") / N;
  Layer["ir.parse_s"] = Self("ir.parse") / N;
  Layer["frontend.compile_c_s"] = Self("frontend.compile_c") / N;
}
