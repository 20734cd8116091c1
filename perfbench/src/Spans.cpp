//===- perfbench/src/Spans.cpp --------------------------------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstring>

using namespace perfbench;

int32_t Lane::open(const char *Name, uint64_t Op) {
  SpanRecord R;
  R.Name = Name;
  R.Op = Op;
  R.Parent = Stack.empty() ? -1 : Stack.back();
  R.Begin = Clock::now();
  Spans.push_back(R);
  int32_t Index = int32_t(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void Lane::close(int32_t Index) {
  Spans[size_t(Index)].End = Clock::now();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

void Lane::addChild(const char *Name, uint64_t Op, Clock::time_point Begin,
                    double Seconds) {
  SpanRecord R;
  R.Name = Name;
  R.Op = Op;
  R.Parent = Stack.empty() ? -1 : Stack.back();
  R.Begin = Begin;
  R.End = Begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
  Spans.push_back(R);
}

Lane *Tracer::newLane() {
  std::lock_guard<std::mutex> G(Mu);
  Lanes.emplace_back(unsigned(Lanes.size()));
  return &Lanes.back();
}

std::map<std::string, LayerTime> Tracer::layerTimes() const {
  std::map<std::string, LayerTime> Out;
  std::lock_guard<std::mutex> G(Mu);
  for (const Lane &L : Lanes) {
    const std::vector<SpanRecord> &S = L.spans();
    std::vector<double> ChildSeconds(S.size(), 0.0);
    for (const SpanRecord &R : S)
      if (R.Parent >= 0)
        ChildSeconds[size_t(R.Parent)] += secondsBetween(R.Begin, R.End);
    for (size_t I = 0; I < S.size(); ++I) {
      LayerTime &T = Out[S[I].Name];
      double D = secondsBetween(S[I].Begin, S[I].End);
      ++T.Spans;
      T.TotalSeconds += D;
      T.SelfSeconds += D - ChildSeconds[I];
    }
  }
  return Out;
}

std::vector<double> Tracer::durations(const char *Name) const {
  std::vector<double> Out;
  std::lock_guard<std::mutex> G(Mu);
  for (const Lane &L : Lanes)
    for (const SpanRecord &R : L.spans())
      if (std::strcmp(R.Name, Name) == 0)
        Out.push_back(secondsBetween(R.Begin, R.End));
  return Out;
}

vpo::TraceFile Tracer::toTraceFile() const {
  vpo::TraceFile TF;
  std::lock_guard<std::mutex> G(Mu);
  auto Micros = [this](Clock::time_point T) {
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        T - Epoch)
                        .count());
  };
  for (const Lane &L : Lanes)
    for (size_t I = 0; I < L.spans().size(); ++I) {
      const SpanRecord &R = L.spans()[I];
      vpo::TraceEvent E;
      E.Name = R.Name;
      const char *Dot = std::strchr(R.Name, '.');
      E.Cat = Dot ? std::string(R.Name, Dot) : std::string(R.Name);
      E.TsMicros = R.Begin < Epoch ? 0 : Micros(R.Begin);
      E.DurMicros = uint64_t(
          std::chrono::duration_cast<std::chrono::microseconds>(R.End -
                                                                R.Begin)
              .count());
      E.Tid = L.id();
      E.Args.emplace_back("op", std::to_string(R.Op));
      E.Args.emplace_back("span", std::to_string(I));
      E.Args.emplace_back("parent", std::to_string(R.Parent));
      TF.add(std::move(E));
    }
  return TF;
}
