//===- perfbench/src/VpodMixed.cpp - the vpod_mixed workload --------------===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A private vpod — default durability (journal fsync on every insert),
/// a fixed pool of workers, no fault injection — driven as a closed loop
/// by a fixed number of connections from this process. Each connection
/// repeats a ten-request pattern of one cold request, one variant and
/// eight repeats:
///
///   * cold: compile+run of a freshly generated kernel (cache miss,
///     journal insert);
///   * repeat: a byte-identical copy of one of the connection's recent cold
///     requests (raw-bytes alias hit, served by the daemon alone);
///   * variant: a whitespace variant of a recent cold kernel (raw miss, a
///     worker parses it to the canonical key).
///
/// The mix is not taken from observed traffic; no source in the
/// repository gives shares for the three kinds. It was chosen so that the
/// median falls among the repeats and the 90th percentile in the middle of
/// the slow kinds (20% of the mix), both away from the boundary between
/// them. bench/vpod_load's 1:1 cold/warm split would put the median on
/// that boundary.
///
/// After the timed phase every response is diffed against an in-process
/// compileServiceRequest of the same request.
///
/// Request latency here is mostly threads waking one another. Set-ups and
/// segments therefore run under KeepCpusAwake, so that a wake-up does not
/// wait for the host to schedule a halted virtual CPU. While a segment
/// runs, a thread samples the speed probe every ProbeInterval under the
/// segment's own load, and the segment's figures are calibrated by the
/// median sample.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/KernelGen.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Worker.h"
#include "sim/Memory.h"
#include "support/RNG.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <optional>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>

using namespace perfbench;
using namespace vpo;
using namespace vpo::service;

namespace {

constexpr unsigned DaemonWorkers = 3;
constexpr unsigned Connections = 2;
/// Threads computing the post-phase reference answers.
constexpr unsigned VerifyThreads = 4;
/// Cold kernels per connection whose replay gives the layer counts.
constexpr uint32_t CanonicalColdPerConn = 8;
/// How far back a repeat or variant may reach among recent cold kernels.
constexpr size_t RecentWindow = 8;

enum class Kind : uint8_t { Cold, Repeat, Variant };
const Kind Pattern[] = {Kind::Cold,   Kind::Repeat, Kind::Repeat,
                        Kind::Repeat, Kind::Repeat, Kind::Variant,
                        Kind::Repeat, Kind::Repeat, Kind::Repeat,
                        Kind::Repeat};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

struct Kernel {
  std::string IR;
  std::string RunArgs;
};

Kernel makeKernel(uint64_t Seed) {
  fuzz::GeneratedKernel GK = fuzz::generateKernel(Seed);
  Memory Scratch(size_t(1) << 20);
  std::string Args;
  for (int64_t A : fuzz::setupKernelMemory(GK.Spec, 16, Scratch, 0)) {
    if (!Args.empty())
      Args += ',';
    Args += std::to_string(A);
  }
  return Kernel{std::move(GK.IRText), std::move(Args)};
}

/// Leading blank lines and trailing spaces: a distinct text per variant
/// number that parses to the same canonical function.
std::string variantText(const std::string &IR, uint32_t V) {
  return std::string(1 + V % 16, '\n') + IR +
         std::string(1 + (V / 16) % 16, ' ') + "\n";
}

ServiceRequest makeRequest(const Kernel &K, std::string IR) {
  ServiceRequest Req;
  Req.IR = std::move(IR);
  Req.Config = "coalesce-all";
  Req.Target = "alpha";
  Req.RunArgs = K.RunArgs;
  Req.ArenaKB = 1024;
  return Req;
}

/// What the benchmark keeps of one response for the post-phase diff (and
/// of each reference answer).
struct Sent {
  Kind K = Kind::Cold;
  uint32_t Kernel = 0;  ///< index into the connection's cold kernels
  uint32_t Variant = 0; ///< variant number (Kind::Variant)
  double Ms = 0;
  std::string Transport; ///< non-empty: the exchange itself failed
  ErrorCode Status = ErrorCode::Ok;
  unsigned Rung = 0;
  std::string Key;
  uint64_t IRHash = 0;
  bool Ran = false;
  std::string RunStatus;
  int64_t ReturnValue = 0;
};

/// The compared fields of \p R.
Sent record(const ServiceResponse &R) {
  Sent S;
  S.Status = R.Status;
  S.Rung = R.Rung;
  S.Key = R.Key;
  S.IRHash = fnv1a(R.IR);
  S.Ran = R.Ran;
  S.RunStatus = R.RunStatus;
  S.ReturnValue = R.ReturnValue;
  return S;
}

struct Connection {
  ServiceClient Client;
  std::vector<Kernel> Kernels; ///< this phase's cold kernels, in order
  std::vector<Sent> Log;
  uint64_t Next = 0;     ///< position in the request pattern
  uint32_t Variants = 0; ///< variants sent so far
};

/// op=status counters as numbers.
std::map<std::string, double> daemonStatus(ServiceClient &C) {
  std::map<std::string, double> Out;
  ServiceRequest Req;
  Req.Op = "status";
  if (StatusOr<ServiceResponse> R = C.call(Req))
    for (const auto &[K, V] : R->Extra)
      Out[K] = std::strtod(V.c_str(), nullptr);
  return Out;
}

/// A forked daemon and the benchmark's connections to it.
struct DaemonProcess {
  std::string Socket, Journal;
  long Pid = -1;
  std::vector<Connection> Conns;

  /// Forks the daemon on a fresh journal, waits until it listens, connects
  /// and pings every client and serves one fixed warm-up compile.
  /// \returns an error or "".
  std::string boot() {
    std::remove(Journal.c_str());
    // The child writes one byte here once it listens, so the set-up time
    // holds no polling delay.
    int Ready[2];
    if (::pipe(Ready) != 0)
      return "pipe failed";
    const pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0) {
      ::close(Ready[0]);
      ::close(Ready[1]);
      return "fork failed";
    }
    if (Pid == 0) {
      // Stop (draining, then reaping the workers) if the benchmark dies.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != Parent)
        ::_exit(1);
      ::close(Ready[0]);
      DaemonOptions DO;
      DO.SocketPath = Socket;
      DO.Workers = DaemonWorkers;
      DO.CacheJournalPath = Journal;
      Daemon D(DO);
      if (!D.start())
        ::_exit(1);
      char Up = 1;
      bool Told = ::write(Ready[1], &Up, 1) == 1;
      ::close(Ready[1]);
      if (!Told)
        ::_exit(1);
      D.run();
      ::_exit(0);
    }
    ::close(Ready[1]);
    char Up = 0;
    ssize_t Got;
    do
      Got = ::read(Ready[0], &Up, 1);
    while (Got < 0 && errno == EINTR);
    ::close(Ready[0]);
    if (Got != 1)
      return "the daemon did not start";
    Conns.resize(Connections);
    for (Connection &C : Conns) {
      ServiceRequest Ping;
      Ping.Op = "ping";
      if (!C.Client.connectTo(Socket) || !C.Client.call(Ping))
        return "could not reach the daemon at " + Socket;
    }
    Kernel K = makeKernel(0x5eed);
    StatusOr<ServiceResponse> R = Conns[0].Client.call(makeRequest(K, K.IR));
    if (!R || R->Status != ErrorCode::Ok)
      return "warm-up compile failed";
    return "";
  }

  /// Shuts the daemon down (it reaps its workers), waits for it and
  /// removes its files.
  void stop() {
    if (Pid <= 0)
      return;
    ServiceClient C;
    if (C.connectTo(Socket)) {
      ServiceRequest Bye;
      Bye.Op = "shutdown";
      (void)C.call(Bye);
    } else {
      ::kill(pid_t(Pid), SIGTERM);
    }
    C.close();
    Conns.clear();
    int St = 0;
    ::waitpid(pid_t(Pid), &St, 0);
    Pid = -1;
    std::remove(Socket.c_str());
    std::remove(Journal.c_str());
  }
};

/// Time slices per phase; each is one segment.
constexpr unsigned Segments = 5;

/// Pause between speed probes during a segment. A probe takes about 1 ms,
/// so sampling costs one CPU some 5%.
constexpr std::chrono::milliseconds ProbeInterval{20};

/// Share of a segment's requests, fastest first, behind its throughput.
/// The slowest 1% are journal fsync stalls of 20-300 ms whose length
/// follows the shared disk rather than the program.
constexpr double RateShare = 0.99;

/// A closed loop's throughput, connections / mean latency, over the
/// RateShare fastest of \p Ms.
double closedLoopRate(const std::vector<double> &Ms) {
  double MeanMs = trimmedMean(Ms, RateShare);
  return MeanMs > 0 ? double(Connections) * 1e3 / MeanMs : 0;
}

class VpodMixed final : public WorkloadRunner {
public:
  explicit VpodMixed(const Options &O) : Seed(O.Seed) {
    std::string Tag = "vpod-" + std::to_string(long(::getpid()));
    Main.Socket = Tag + ".sock";
    Main.Journal = Tag + ".journal";
    Probe.Socket = Tag + "-setup.sock";
    Probe.Journal = Tag + "-setup.journal";
  }
  ~VpodMixed() override { teardown(); }

  const char *opNoun() const override { return "request"; }

  /// Boots a daemon, connects every client, pings each and serves one
  /// fixed warm-up compile (through the journal). The kept boot serves the
  /// phases; the others boot a second daemon beside it and stop it again,
  /// outside the timed interval. \returns calibrated seconds.
  double setup(bool Keep) override {
    DaemonProcess &D = Keep ? Main : Probe;
    D.stop();
    KeepCpusAwake Awake;
    Clock::time_point T0 = Clock::now();
    std::string Err = D.boot();
    double Secs = calibrated(secondsBetween(T0, Clock::now()), probeSeconds());
    if (!Err.empty())
      SetupFailures.push_back(Err);
    if (Keep)
      MainUp = Err.empty();
    else
      D.stop();
    return Secs;
  }

  PhaseResult phase(double Seconds, Tracer *T,
                    const std::function<void()> &Between) override {
    PhaseResult Result;
    if (!MainUp) {
      Result.Attempted = 1;
      Result.fail("no daemon to drive");
      return Result;
    }
    const uint64_t PhaseTag = Phases++;
    std::map<std::string, double> Before = daemonStatus(Main.Conns[0].Client);
    std::vector<Lane *> Lanes(Connections, nullptr);
    if (T)
      for (Lane *&L : Lanes)
        L = T->newLane();
    std::vector<RNG> Rngs;
    for (unsigned CI = 0; CI < Connections; ++CI) {
      Connection &C = Main.Conns[CI];
      C.Kernels.clear();
      C.Log.clear();
      C.Next = 0;
      C.Variants = 0;
      Rngs.emplace_back(splitmix(Seed ^ (PhaseTag << 40) ^ CI));
    }

    // One connection's closed loop until \p Until (and, in the first
    // segment, until its share of the canonical batch is sent).
    auto Drive = [&](unsigned CI, Clock::time_point Until) {
      Connection &C = Main.Conns[CI];
      Lane *L = Lanes[CI];
      for (;; ++C.Next) {
        bool BatchDone = C.Kernels.size() >= CanonicalColdPerConn &&
                         C.Next % std::size(Pattern) == 0;
        if (BatchDone && Clock::now() >= Until)
          break;
        Sent S;
        S.K = Pattern[C.Next % std::size(Pattern)];
        if (S.K == Kind::Cold) {
          uint64_t KSeed = splitmix(splitmix(Seed) ^ (PhaseTag << 48) ^
                                    (uint64_t(CI) << 32) ^ C.Kernels.size());
          C.Kernels.push_back(makeKernel(KSeed));
          S.Kernel = uint32_t(C.Kernels.size() - 1);
        } else {
          size_t Window = std::min(RecentWindow, C.Kernels.size());
          S.Kernel =
              uint32_t(C.Kernels.size() - 1 - Rngs[CI].nextBelow(Window));
        }
        const Kernel &K = C.Kernels[S.Kernel];
        ServiceRequest Req = makeRequest(K, K.IR);
        if (S.K == Kind::Variant) {
          S.Variant = C.Variants++;
          Req.IR = variantText(K.IR, S.Variant);
        }
        Req.Id = std::to_string(C.Next);

        Clock::time_point R0 = Clock::now();
        std::optional<StatusOr<ServiceResponse>> R;
        Status SendStatus = Status::ok();
        {
          ScopedSpan Root(L, "service.request", C.Next);
          SendStatus = C.Client.send(Req);
          if (SendStatus) {
            ScopedSpan W(L, "service.wait", C.Next);
            R.emplace(C.Client.receive());
          }
        }
        S.Ms = secondsBetween(R0, Clock::now()) * 1e3;
        if (!R || !*R) {
          S.Transport = R ? R->status().message() : SendStatus.message();
          C.Log.push_back(std::move(S));
          C.Client.close();
          if (!C.Client.connectTo(Main.Socket)) {
            ++C.Next;
            break;
          }
          continue;
        }
        Sent Got = record(**R);
        Got.K = S.K;
        Got.Kernel = S.Kernel;
        Got.Variant = S.Variant;
        Got.Ms = S.Ms;
        C.Log.push_back(std::move(Got));
      }
    };

    // Per segment, in wall and in calibrated time: throughput, and the
    // median of each kind and of all.
    std::vector<double> Rates, P50s, P90s, Kinds[3];
    std::vector<double> CalRates, CalP50s, CalP90s, CalKinds[3], Probes;
    double WallSeconds = 0; // segments only, not the set-ups between them
    for (unsigned Seg = 0; Seg < Segments; ++Seg) {
      Clock::time_point S0 = Clock::now();
      std::vector<size_t> Mark;
      for (const Connection &C : Main.Conns)
        Mark.push_back(C.Log.size());
      Clock::time_point Until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(Seconds / Segments));
      std::vector<double> SegProbes; // written by Prober alone until joined
      {
        KeepCpusAwake Awake;
        std::atomic<bool> Done{false};
        std::thread Prober([&] {
          while (!Done.load()) {
            SegProbes.push_back(probeSeconds());
            std::this_thread::sleep_for(ProbeInterval);
          }
        });
        std::vector<std::thread> Pool;
        for (unsigned CI = 0; CI < Connections; ++CI)
          Pool.emplace_back(Drive, CI, Until);
        for (std::thread &Th : Pool)
          Th.join();
        Done = true;
        Prober.join();
      }
      WallSeconds += secondsBetween(S0, Clock::now());
      std::vector<double> All, ByKind[3];
      for (unsigned CI = 0; CI < Connections; ++CI)
        for (size_t I = Mark[CI]; I < Main.Conns[CI].Log.size(); ++I) {
          const Sent &S = Main.Conns[CI].Log[I];
          All.push_back(S.Ms);
          ByKind[size_t(S.K)].push_back(S.Ms);
        }
      Result.Attempted += All.size();
      const double Probe = quantile(SegProbes, 0.5);
      auto Both = [Probe](std::vector<double> &Wall, std::vector<double> &Cal,
                          double Ms) {
        Wall.push_back(Ms);
        Cal.push_back(calibrated(Ms, Probe));
      };
      Probes.push_back(Probe);
      Rates.push_back(closedLoopRate(All));
      CalRates.push_back(Rates.back() / calibrated(1, Probe));
      Both(P50s, CalP50s, quantile(All, 0.5));
      Both(P90s, CalP90s, quantile(All, 0.9));
      for (size_t K = 0; K < 3; ++K)
        Both(Kinds[K], CalKinds[K], quantile(ByKind[K], 0.5));
      Between();
    }
    std::map<std::string, double> After = daemonStatus(Main.Conns[0].Client);
    verifyAll(Result, T);
    for (const std::string &N : SetupFailures)
      Result.fail(N);
    SetupFailures.clear();

    auto Fast = [](const std::vector<double> &V) { return quantile(V, 0.25); };
    Result.OpsPerS = fastRate(CalRates);
    Result.P50Ms = Fast(CalP50s);
    Result.P90Ms = Fast(CalP90s);
    Result.Extra["cold_p50_ms"] = Fast(CalKinds[size_t(Kind::Cold)]);
    Result.Extra["warm_p50_ms"] = Fast(CalKinds[size_t(Kind::Repeat)]);
    Result.Extra["probe_ms"] = quantile(Probes, 0.5) * 1e3;
    Result.Extra["wall_req_per_s"] = fastRate(Rates);
    Result.Extra["wall_req_p50_ms"] = Fast(P50s);
    Result.Extra["wall_req_p90_ms"] = Fast(P90s);
    Result.Extra["wall_req_per_s_with_stalls"] =
        double(Result.Attempted) / WallSeconds;
    double Requests = After["requests"] - Before["requests"];
    if (T) {
      replayLayers(Result, *T);
      std::vector<double> Worker = T->durations("service.worker_compile");
      double WorkerMs = quantile(Worker, 0.5) * 1e3;
      // Wall time, like the worker compile they are compared with.
      double ColdMs = Fast(Kinds[size_t(Kind::Cold)]);
      Result.Layer["service.rtt_cold_ms"] = ColdMs;
      Result.Layer["service.rtt_warm_ms"] = Fast(Kinds[size_t(Kind::Repeat)]);
      Result.Layer["service.rtt_variant_ms"] = Fast(Kinds[size_t(Kind::Variant)]);
      Result.Layer["service.worker_compile_ms"] = WorkerMs;
      Result.Layer["service.daemon_overhead_ms"] = ColdMs - WorkerMs;
      Result.Layer["service.cache_hit_ratio"] =
          Requests > 0 ? (After["cache_hits"] - Before["cache_hits"]) / Requests
                       : 0;
      Result.Layer["service.journal_bytes"] = After["journal_bytes"];
      for (const char *K : {"shed", "respawns", "served_degraded"})
        Result.Layer[std::string("service.") + K] = After[K] - Before[K];
      Result.Extra["service.requests"] = Requests;
      Result.Extra["service.cache_hits"] =
          After["cache_hits"] - Before["cache_hits"];
    }
    return Result;
  }

  void teardown() override {
    Main.stop();
    Probe.stop();
    MainUp = false;
  }

private:
  /// Diffs every logged response against an in-process
  /// compileServiceRequest of its request, computed once per distinct
  /// request text on VerifyThreads threads. Traced phases time the cold
  /// requests' reference compiles as service.worker_compile.
  void verifyAll(PhaseResult &Result, Tracer *T) {
    using RefKey = std::tuple<unsigned, uint32_t, uint32_t>;
    auto KeyOf = [](unsigned CI, const Sent &S) {
      return RefKey(CI, S.Kernel, S.K == Kind::Variant ? S.Variant + 1 : 0);
    };
    std::map<RefKey, size_t> Index;
    std::vector<RefKey> Keys;
    for (unsigned CI = 0; CI < Main.Conns.size(); ++CI)
      for (const Sent &S : Main.Conns[CI].Log)
        if (S.Transport.empty() && Index.emplace(KeyOf(CI, S), Keys.size()).second)
          Keys.push_back(KeyOf(CI, S));

    std::vector<Sent> Refs(Keys.size());
    std::atomic<size_t> Next{0};
    auto Work = [&](Lane *L) {
      for (size_t I; (I = Next.fetch_add(1)) < Keys.size();) {
        auto [CI, KI, V] = Keys[I];
        const Kernel &K = Main.Conns[CI].Kernels[KI];
        ServiceRequest Req =
            makeRequest(K, V ? variantText(K.IR, V - 1) : K.IR);
        ScopedSpan Sp(V ? nullptr : L, "service.worker_compile", I);
        Refs[I] = record(compileServiceRequest(Req, WorkerLimits()));
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned I = 1; I < VerifyThreads; ++I)
      Pool.emplace_back(Work, T ? T->newLane() : nullptr);
    Work(T ? T->newLane() : nullptr);
    for (std::thread &Th : Pool)
      Th.join();

    for (unsigned CI = 0; CI < Main.Conns.size(); ++CI) {
      const std::vector<Sent> &Log = Main.Conns[CI].Log;
      for (size_t I = 0; I < Log.size(); ++I) {
        const Sent &S = Log[I];
        std::string Where = "connection " + std::to_string(CI) + " request " +
                            std::to_string(I) + ": ";
        if (!S.Transport.empty()) {
          Result.fail(Where + S.Transport);
          continue;
        }
        const Sent &Want = Refs[Index[KeyOf(CI, S)]];
        if (S.Status != Want.Status)
          Result.fail(Where + "status " + errorCodeName(S.Status) +
                  " != " + errorCodeName(Want.Status));
        else if (S.Rung != 0)
          Result.fail(Where + "served degraded at rung " +
                  std::to_string(S.Rung));
        else if (S.Key != Want.Key || S.IRHash != Want.IRHash)
          Result.fail(Where + "content key or IR differs");
        else if (S.Ran != Want.Ran || S.RunStatus != Want.RunStatus ||
                 S.ReturnValue != Want.ReturnValue)
          Result.fail(Where + "run outcome differs");
      }
    }
  }

  /// Re-issues a worker's calls into the layers — parseModule,
  /// compileFunction with the worker's options and remark sink, the
  /// run-mode functional engine — for each connection's first cold
  /// kernels, under spans, for the per-layer times and counts.
  void replayLayers(PhaseResult &Result, Tracer &T) {
    Lane *L = T.newLane();
    TargetMachine TM = makeAlphaTarget();
    WorkerLimits Limits;
    uint64_t Replayed = 0;
    for (const Connection &C : Main.Conns)
      for (uint32_t KI = 0; KI < CanonicalColdPerConn && KI < C.Kernels.size();
           ++KI, ++Replayed) {
        const Kernel &K = C.Kernels[KI];
        ServiceRequest Req = makeRequest(K, K.IR);
        ScopedSpan Root(L, "service.replay", Replayed);
        std::unique_ptr<Module> M;
        {
          ScopedSpan S(L, "ir.parse", Replayed);
          std::vector<Diagnostic> Diags;
          M = parseModule(Req.IR, Diags);
        }
        if (!M || M->functions().empty())
          continue;
        Function &F = *M->functions().front();
        CollectingRemarkSink Sink;
        CompileOptions CO =
            ladderOptions(serviceConfigByName(Req.Config)->Options, 0);
        CO.GuardRails = true;
        CO.MaxFunctionInsts = Limits.MaxFunctionInsts;
        CO.Remarks = &Sink;
        CompileReport Rep = compileTraced(F, TM, CO, L, Replayed);
        addCompileCounts(Result.Counts, Rep, F);

        std::vector<int64_t> Args;
        for (size_t P = 0; P <= Req.RunArgs.size();) {
          size_t Comma = Req.RunArgs.find(',', P);
          if (Comma == std::string::npos)
            Comma = Req.RunArgs.size();
          Args.push_back(std::strtoll(Req.RunArgs.c_str() + P, nullptr, 10));
          P = Comma + 1;
        }
        Memory Mem(Req.ArenaKB * size_t(1024) + 4096);
        InterpreterOptions IO;
        IO.MaxSteps = Limits.MaxInsts;
        IO.EnableJIT = true;
        CollectingRemarkSink RunSink;
        IO.Remarks = &RunSink;
        Interpreter Interp(TM, Mem, IO);
        RunResult RR;
        {
          ScopedSpan S(L, "jit.run", Replayed);
          RR = Interp.run(F, Args);
        }
        Result.Insts.Jit += RR.Instructions;
        addJitCounts(Result.Counts, RunSink);
      }
    finishCounts(Result.Counts);
    addLayerTimes(Result.Layer, T, Replayed, Result.Insts);
  }

  uint64_t Seed;
  DaemonProcess Main;  ///< the daemon the phases drive
  DaemonProcess Probe; ///< set-up repetitions boot and stop this one
  bool MainUp = false;
  std::vector<std::string> SetupFailures;
  uint64_t Phases = 0;
};

} // namespace

std::unique_ptr<WorkloadRunner> perfbench::makeVpodMixed(const Options &O) {
  return std::make_unique<VpodMixed>(O);
}
