//===- Trace.cpp - In-memory spans around the harness's calls -------------===//

#include "Trace.h"

namespace repobench {

const char *layerName(Layer L) {
  static const char *const Names[kNumLayers] = {
      "harness", "api", "synth", "smt", "spec", "interp", "table",
      "service", "io", "net", "cluster", "bus"};
  return Names[size_t(L)];
}

void SpanLog::begin(const char *Name, Layer L, uint64_t Req) {
  Span S;
  S.Name = Name;
  S.L = L;
  S.Req = Req;
  S.Id = newId();
  S.Parent = current();
  S.StartNs = nowNs();
  Open.push_back(S);
}

void SpanLog::end() {
  Span S = Open.back();
  Open.pop_back();
  S.EndNs = nowNs();
  if (Open.empty())
    finish(S, nullptr);
  else
    finish(S, &Open.back().L);
}

void SpanLog::add(Span S, Layer ParentLayer) {
  if (S.Id == 0)
    S.Id = newId();
  finish(S, S.Parent ? &ParentLayer : nullptr);
}

void SpanLog::finish(const Span &S, const Layer *ParentLayer) {
  double Dur = double(S.EndNs - S.StartNs);
  SelfNs[size_t(S.L)] += Dur;
  if (ParentLayer)
    SelfNs[size_t(*ParentLayer)] -= Dur;
  ++Recorded;
  auto &[Total, Count] = ByName[S.Name];
  Total += Dur;
  ++Count;
  if (Kept.size() < KeepCap)
    Kept.push_back(S);
}

std::array<double, kNumLayers>
selfSeconds(const std::vector<const SpanLog *> &Logs) {
  std::array<double, kNumLayers> Out{};
  for (const SpanLog *Log : Logs)
    for (size_t L = 0; L != kNumLayers; ++L)
      Out[L] += Log->selfNs()[L] / 1e9;
  return Out;
}

double meanSpanUs(const std::vector<const SpanLog *> &Logs,
                  const std::string &Name) {
  double Total = 0;
  uint64_t Count = 0;
  for (const SpanLog *Log : Logs)
    for (const auto &[Key, Sum] : Log->byName())
      if (Name == Key) {
        Total += Sum.first;
        Count += Sum.second;
      }
  return Count ? Total / 1e3 / double(Count) : 0;
}

void writeSpans(std::ostream &OS, const std::vector<const SpanLog *> &Logs) {
  for (const SpanLog *Log : Logs)
    for (const Span &S : Log->kept())
      OS << "{\"name\":\"" << S.Name << "\",\"layer\":\"" << layerName(S.L)
         << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
         << ",\"id\":" << S.Id << ",\"parent\":" << S.Parent
         << ",\"req\":" << S.Req << "}\n";
}

} // namespace repobench
