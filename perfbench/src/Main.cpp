//===- perfbench/src/Main.cpp - the repository benchmark --------------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <paper_matrix|fuzz_oracle|vpod_mixed> --seed <n>
///           --seconds <s> --trace <0|1> [--threads <n>]
///           [--work-dir <dir>] [--counts-out <file>] [--trace-out <file>]
///           [--report-out <file>]
/// perfbench --check-harness --seed <n> [--threads <n>]
///
/// Prints a human-readable report, then, as the last line of standard
/// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
/// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
/// and a traced phase of half the time each and reports the per-layer
/// metrics. Metric names, units and meanings: perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 5;

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. Every workload reports
/// each of them; "op" is the workload's own operation (cell, check or
/// request).
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},       {"op_p90_ms", "ms"},
    {"ok_rate", "ratio"},      {"peak_rss_mb", "MB"},
    {"gen_cycles_geomean", "cycles"},
};

/// The per-layer metrics, in BENCHMARK.json order; 0 where a workload
/// does not reach the layer.
const MetricDef PerLayer[] = {
    {"sim.run_s", "s"},
    {"sim.minsts_per_s", "Minsts/s"},
    {"sim.instructions", "count"},
    {"sim.cycles", "cycles"},
    {"sim.cpi", "cycles/inst"},
    {"sim.memrefs", "count"},
    {"sim.load_bytes", "bytes"},
    {"sim.store_bytes", "bytes"},
    {"sim.dcache_miss_ratio", "ratio"},
    {"sim.icache_miss_ratio", "ratio"},
    {"jit.run_s", "s"},
    {"jit.minsts_per_s", "Minsts/s"},
    {"jit.blocks_compiled", "count"},
    {"jit.bytes_emitted", "bytes"},
    {"jit.promotions", "count"},
    {"jit.native_entries", "count"},
    {"jit.deopts", "count"},
    {"jit.native_faults", "count"},
    {"pipeline.compile_s", "s"},
    {"pipeline.self_s", "s"},
    {"pipeline.compile_p50_ms", "ms"},
    {"pipeline.compiles", "count"},
    {"pipeline.incidents", "count"},
    {"pass.strength-reduce_s", "s"},
    {"pass.coalesce_s", "s"},
    {"pass.cleanup_s", "s"},
    {"pass.legalize_s", "s"},
    {"pass.schedule_s", "s"},
    {"coalesce.loops_transformed", "count"},
    {"coalesce.accept_ratio", "ratio"},
    {"coalesce.narrow_refs_removed", "count"},
    {"coalesce.check_insts", "count"},
    {"coalesce.rejected_profitability", "count"},
    {"analysis.alias_pairs_proven", "count"},
    {"analysis.alias_pairs_deferred", "count"},
    {"transform.loops_unrolled", "count"},
    {"transform.static_insts", "count"},
    {"sched.blocks_scheduled", "count"},
    {"workloads.setup_s", "s"},
    {"workloads.golden_s", "s"},
    {"fuzz.generate_s", "s"},
    {"fuzz.check_s", "s"},
    {"fuzz.comparisons", "count"},
    {"fuzz.comparisons_per_s", "1/s"},
    {"fuzz.oracle_self_s", "s"},
    {"frontend.compile_c_s", "s"},
    {"ir.parse_s", "s"},
    {"service.rtt_cold_ms", "ms"},
    {"service.rtt_warm_ms", "ms"},
    {"service.rtt_variant_ms", "ms"},
    {"service.worker_compile_ms", "ms"},
    {"service.daemon_overhead_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.journal_bytes", "bytes"},
    {"service.shed", "count"},
    {"service.respawns", "count"},
    {"service.served_degraded", "count"},
    {"trace.overhead_ops_per_s", "ratio"},
    {"trace.overhead_op_p50_ms", "ratio"},
    {"trace.overhead_op_p90_ms", "ratio"},
};

/// The names each workload's report prints beside the shared ones: what
/// ops_per_s, op_p50_ms and op_p90_ms are called there.
struct WorkloadInfo {
  const char *Name;
  const char *Rate;  ///< ops_per_s under its workload name
  const char *P50;   ///< op_p50_ms under its workload name
  const char *P90;   ///< op_p90_ms under its workload name
  std::unique_ptr<WorkloadRunner> (*Make)(const Options &);
};

const WorkloadInfo Workloads[] = {
    {"paper_matrix", "cells_per_s", "cell_p50_ms", "cell_p90_ms",
     makePaperMatrix},
    {"fuzz_oracle", "checks_per_s", "check_p50_ms", "check_p90_ms",
     makeFuzzOracle},
    {"vpod_mixed", "req_per_s", "req_p50_ms", "req_p90_ms", makeVpodMixed},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <paper_matrix|fuzz_oracle|"
               "vpod_mixed> --seed N --seconds S --trace 0|1 [--threads N]\n"
               "                 [--work-dir D] [--counts-out F] "
               "[--trace-out F] [--report-out F]\n"
               "       perfbench --check-harness --seed N [--threads N]\n",
               Why);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0';
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

bool writeText(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}

/// The counts file the determinism tests diff: every exactly-repeatable
/// count, one "name value" line each, sorted by name.
std::string renderCounts(const std::map<std::string, double> &Counts) {
  std::string Out;
  for (const auto &[K, V] : Counts)
    Out += K + " " + jsonNumber(V) + "\n";
  return Out;
}

double relative(double Traced, double Untraced) {
  return Untraced != 0 ? (Traced - Untraced) / Untraced : 0;
}

/// The traced-run report: self and total time per span name, waiting,
/// every ratio's base, and the tracing overhead per end-to-end metric.
std::string renderTraceReport(const Tracer &T, const PhaseResult &U,
                              const PhaseResult &Tr, const std::string &Noun) {
  std::string Out = "{\n  \"layers\": {";
  bool First = true;
  double Ops = double(Tr.Attempted ? Tr.Attempted : 1);
  for (const auto &[Name, LT] : T.layerTimes()) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + Name + "\": {\"spans\": " + std::to_string(LT.Spans) +
           ", \"total_s\": " + jsonNumber(LT.TotalSeconds) +
           ", \"self_s\": " + jsonNumber(LT.SelfSeconds) +
           ", \"self_s_per_" + Noun + "\": " +
           jsonNumber(LT.SelfSeconds / Ops) +
           ", \"waiting\": " +
           (Name.size() > 5 && Name.compare(Name.size() - 5, 5, ".wait") == 0
                ? "true"
                : "false") +
           "}";
  }
  Out += "\n  },\n  \"ratio_bases\": {";
  First = true;
  for (const auto *Src : {&Tr.Counts, &Tr.Extra})
    for (const auto &[K, V] : *Src) {
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "    \"" + K + "\": " + jsonNumber(V);
    }
  Out += "\n  },\n  \"overhead\": {";
  auto Pair = [](const char *Name, double Untraced, double Traced) {
    return std::string("\n    \"") + Name + "\": {\"untraced\": " +
           jsonNumber(Untraced) + ", \"traced\": " + jsonNumber(Traced) + "}";
  };
  Out += Pair("ops_per_s", U.OpsPerS, Tr.OpsPerS) + ",";
  Out += Pair("op_p50_ms", U.P50Ms, Tr.P50Ms) + ",";
  Out += Pair("op_p90_ms", U.P90Ms, Tr.P90Ms);
  Out += "\n  }\n}\n";
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  bool CheckHarness = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (A == "--check-harness") {
      CheckHarness = true;
      continue;
    }
    if (!V)
      usage(("missing value for " + A).c_str());
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed" && parseUnsigned(V, N))
      O.Seed = N, HaveSeed = true;
    else if (A == "--seconds" && parseUnsigned(V, N) && N > 0)
      O.Seconds = double(N), HaveSeconds = true;
    else if (A == "--trace" && parseUnsigned(V, N) && N <= 1)
      O.Trace = N == 1, HaveTrace = true;
    else if (A == "--threads" && parseUnsigned(V, N) && N > 0 && N <= 64)
      O.Threads = unsigned(N);
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--counts-out")
      O.CountsOut = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--report-out")
      O.ReportOut = V;
    else
      usage(("bad argument " + A + " " + V).c_str());
  }

  if (CheckHarness) {
    if (!HaveSeed)
      usage("--check-harness needs --seed");
    return checkHarnessAgreement(O.Seed, O.Threads ? O.Threads : 4) ? 0 : 1;
  }

  const WorkloadInfo *Info = nullptr;
  for (const WorkloadInfo &W : Workloads)
    if (O.Workload == W.Name)
      Info = &W;
  if (!Info)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--seed, --seconds and --trace are required");
  // Output files resolve against the starting directory; scratch files
  // (daemon socket, journal) go to the work directory.
  auto Absolute = [](std::string &P) {
    if (!P.empty() && P[0] != '/') {
      char Buf[4096];
      if (::getcwd(Buf, sizeof(Buf)))
        P = std::string(Buf) + "/" + P;
    }
  };
  Absolute(O.CountsOut);
  Absolute(O.TraceOut);
  Absolute(O.ReportOut);
  if (!O.WorkDir.empty() && ::chdir(O.WorkDir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", O.WorkDir.c_str());
    return 1;
  }

  std::unique_ptr<WorkloadRunner> W = Info->Make(O);
  const std::string Noun = W->opNoun();
  // The kept set-up first; the other repetitions run between segments, so
  // their median samples the whole run, and any left over at the end.
  std::vector<double> SetupTimes = {W->setup(true)};
  auto Between = [&] {
    if (SetupTimes.size() < SetupRepeats)
      SetupTimes.push_back(W->setup(false));
  };

  PhaseResult Main;   // the phase whose metrics are reported
  PhaseResult Untraced;
  Tracer T;
  if (O.Trace) {
    Untraced = W->phase(O.Seconds / 2, nullptr, Between);
    Main = W->phase(O.Seconds / 2, &T, Between);
  } else {
    Main = W->phase(O.Seconds, nullptr, Between);
  }
  while (SetupTimes.size() < SetupRepeats)
    Between();
  const double SetupS = quantile(SetupTimes, 0.5);
  W->teardown();
  W.reset();

  uint64_t Attempted = Main.Attempted + Untraced.Attempted;
  uint64_t Failed = Main.Failed + Untraced.Failed;
  for (const PhaseResult *P : {&Untraced, &Main})
    for (const std::string &Note : P->FailureNotes)
      std::fprintf(stderr, "perfbench: FAIL %s\n", Note.c_str());

  // gen_cycles_geomean: the paper matrix measures it on its own first
  // round; the other workloads run the small paper probe after timing.
  double GenCycles = 0;
  if (O.Workload == "paper_matrix") {
    GenCycles = Main.Counts["gen_cycles_geomean"];
  } else if (!O.Trace) {
    bool ProbeOk = true;
    GenCycles = probeGenCyclesGeomean(O.Seed, ProbeOk);
    ++Attempted;
    if (!ProbeOk) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAIL gen-cycles probe unverified\n");
    }
    Main.Counts["gen_cycles_geomean"] = GenCycles;
  }

  const double OpsPerS = Main.OpsPerS;
  const double P50 = Main.P50Ms;
  const double P90 = Main.P90Ms;
  const double OkRate =
      Attempted ? double(Attempted - Failed) / double(Attempted) : 0;
  std::map<std::string, double> Values;
  if (!O.Trace) {
    Values = {{"setup_s", SetupS},       {"ops_per_s", OpsPerS},
              {"op_p50_ms", P50},        {"op_p90_ms", P90},
              {"ok_rate", OkRate},       {"peak_rss_mb", peakRssMB()},
              {"gen_cycles_geomean", GenCycles}};
  } else {
    Values = Main.Counts;
    for (const auto &[K, V] : Main.Layer)
      Values[K] = V;
    Values["trace.overhead_ops_per_s"] = relative(OpsPerS, Untraced.OpsPerS);
    Values["trace.overhead_op_p50_ms"] = relative(P50, Untraced.P50Ms);
    Values["trace.overhead_op_p90_ms"] = relative(P90, Untraced.P90Ms);
  }

  // Human-readable report: the shared names plus the workload's own.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %llu %ss, "
              "%llu failed\n",
              Info->Name, (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0, (unsigned long long)Attempted, Noun.c_str(),
              (unsigned long long)Failed);
  std::printf("  %-28s %14.6g %s\n", "error_rate", 1 - OkRate, "ratio");
  if (!O.Trace) {
    std::printf("  %-28s %14.6g %s\n", Info->Rate, OpsPerS, "1/s");
    std::printf("  %-28s %14.6g %s\n", Info->P50, P50, "ms");
    std::printf("  %-28s %14.6g %s\n", Info->P90, P90, "ms");
    for (const auto &[K, V] : Main.Extra)
      if (K.find('.') == std::string::npos)
        std::printf("  %-28s %14.6g\n", K.c_str(), V);
  }
  const MetricDef *Defs = O.Trace ? PerLayer : EndToEnd;
  size_t NumDefs = O.Trace ? std::size(PerLayer) : std::size(EndToEnd);
  for (size_t I = 0; I < NumDefs; ++I)
    std::printf("  %-28s %14.6g %s\n", Defs[I].Name, Values[Defs[I].Name],
                Defs[I].Unit);

  if (!O.CountsOut.empty() && !writeText(O.CountsOut, renderCounts(Main.Counts)))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.CountsOut.c_str());
  if (O.Trace) {
    std::string TracePath =
        O.TraceOut.empty() ? std::string("trace_") + Info->Name + ".json"
                           : O.TraceOut;
    std::string ReportPath =
        O.ReportOut.empty() ? std::string("report_") + Info->Name + ".json"
                            : O.ReportOut;
    if (!T.toTraceFile().writeFile(TracePath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
    std::string Report = renderTraceReport(T, Untraced, Main, Noun);
    if (!writeText(ReportPath, Report))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   ReportPath.c_str());
    std::printf("traced-run report (%s):\n%s", ReportPath.c_str(),
                Report.c_str());
  }

  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < NumDefs; ++I) {
    Json += I ? ", " : "";
    Json += std::string("\"") + Defs[I].Name + "\": {\"value\": " +
            jsonNumber(Values[Defs[I].Name]) + ", \"unit\": \"" +
            Defs[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
