//===- bus/TrafficRecorder.cpp - Replayable service traffic log ---------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "bus/TrafficRecorder.h"

#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "service/Fingerprint.h"
#include "service/SynthService.h"
#include "spec/Abstraction.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace morpheus;

namespace {

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%" PRIx64, V);
  return Buf;
}

/// True when \p D is a whole number inside [\p Lo, \p Hi) — the check that
/// makes a double-to-integer cast defined. NaN and the infinities (a
/// "1e999" literal parses as inf) fail every comparison here.
bool isIntegralIn(double D, double Lo, double Hi) {
  return D >= Lo && D < Hi && std::trunc(D) == D;
}

/// Parses "0x…" (or plain decimal) into a uint64; JSON numbers are doubles
/// and cannot carry 64 bits, so fingerprints travel as strings. A number
/// must be a whole value below 2^64.
bool parseU64(const JsonValue &V, uint64_t &Out) {
  if (V.isNumber()) {
    if (!isIntegralIn(V.Num, 0, 18446744073709551616.0))
      return false;
    Out = uint64_t(V.Num);
    return true;
  }
  if (!V.isString() || V.Str.empty())
    return false;
  // Base 16 only behind an explicit "0x"; everything else is decimal.
  // Never base 0: strtoull would then read a leading-zero decimal like
  // "010" as octal 8, silently corrupting a replayed fingerprint.
  bool Hex = V.Str.size() > 2 && V.Str[0] == '0' &&
             (V.Str[1] == 'x' || V.Str[1] == 'X');
  errno = 0;
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(V.Str.c_str(), &End, Hex ? 16 : 10);
  if (errno != 0 || End != V.Str.c_str() + V.Str.size())
    return false;
  Out = Parsed;
  return true;
}

bool getU64(const JsonValue &Obj, std::string_view Key, uint64_t &Out,
            std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !parseU64(*V, Out)) {
    if (Err)
      *Err = "missing or malformed '" + std::string(Key) + "'";
    return false;
  }
  return true;
}

} // namespace

std::optional<TrafficRecord>
morpheus::parseTrafficRecord(std::string_view Line, std::string *Err) {
  std::optional<JsonValue> Doc = parseJson(Line, Err);
  if (!Doc)
    return std::nullopt;
  if (!Doc->isObject()) {
    if (Err)
      *Err = "traffic record is not a JSON object";
    return std::nullopt;
  }

  uint64_t Version = 0;
  if (!getU64(*Doc, "v", Version, Err))
    return std::nullopt;
  if (Version != 1) {
    if (Err)
      *Err = "unsupported traffic log version " + std::to_string(Version);
    return std::nullopt;
  }

  TrafficRecord R;
  if (!getU64(*Doc, "job", R.Job, Err) || !getU64(*Doc, "fp", R.Fp, Err) ||
      !getU64(*Doc, "exfp", R.ExFp, Err) ||
      !getU64(*Doc, "arrival_ns", R.ArrivalNs, Err) ||
      !getU64(*Doc, "completed_ns", R.CompletedNs, Err) ||
      !getU64(*Doc, "deadline_ms", R.DeadlineMs, Err))
    return std::nullopt;

  const JsonValue *Prio = Doc->find("priority");
  if (!Prio || !Prio->isNumber() ||
      !isIntegralIn(Prio->Num, -9223372036854775808.0,
                    9223372036854775808.0)) {
    if (Err)
      *Err = "missing or malformed 'priority'";
    return std::nullopt;
  }
  R.Priority = int64_t(Prio->Num);

  const JsonValue *Outcome = Doc->find("outcome");
  const JsonValue *Source = Doc->find("source");
  if (!Outcome || !Outcome->isString() || !Source || !Source->isString()) {
    if (Err)
      *Err = "missing or malformed 'outcome'/'source'";
    return std::nullopt;
  }
  R.Outcome = Outcome->Str;
  R.Source = Source->Str;

  // Optional timing fields: absent in logs recorded before they existed.
  if (const JsonValue *Q = Doc->find("queue_ms")) {
    if (!Q->isNumber() || Q->Num < 0) {
      if (Err)
        *Err = "'queue_ms' is not a non-negative number";
      return std::nullopt;
    }
    R.QueueMs = Q->Num;
  }
  if (const JsonValue *S = Doc->find("solve_ms")) {
    if (!S->isNumber() || S->Num < 0) {
      if (Err)
        *Err = "'solve_ms' is not a non-negative number";
      return std::nullopt;
    }
    R.SolveMs = S->Num;
  }

  if (const JsonValue *Prog = Doc->find("program")) {
    if (!Prog->isString()) {
      if (Err)
        *Err = "'program' is not a string";
      return std::nullopt;
    }
    R.Program = Prog->Str;
  }

  const JsonValue *Prob = Doc->find("problem");
  if (!Prob) {
    if (Err)
      *Err = "missing 'problem'";
    return std::nullopt;
  }
  std::optional<Problem> P = problemFromJson(*Prob, Err);
  if (!P)
    return std::nullopt;
  R.Prob = std::make_shared<const Problem>(std::move(*P));
  return R;
}

std::optional<std::vector<TrafficRecord>>
morpheus::readTrafficLog(const std::string &Path, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot open " + Path;
    return std::nullopt;
  }
  std::vector<TrafficRecord> Out;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::string LineErr;
    std::optional<TrafficRecord> R = parseTrafficRecord(Line, &LineErr);
    if (!R) {
      if (Err)
        *Err = Path + ":" + std::to_string(LineNo) + ": " + LineErr;
      return std::nullopt;
    }
    Out.push_back(std::move(*R));
  }
  return Out;
}

std::string morpheus::trafficRecordToLine(const TrafficRecord &R) {
  JsonValue Doc = JsonValue::object();
  Doc.set("v", JsonValue::number(1));
  Doc.set("job", JsonValue::number(double(R.Job)));
  Doc.set("fp", JsonValue::string(hex64(R.Fp)));
  Doc.set("exfp", JsonValue::string(hex64(R.ExFp)));
  Doc.set("arrival_ns", JsonValue::string(std::to_string(R.ArrivalNs)));
  Doc.set("completed_ns", JsonValue::string(std::to_string(R.CompletedNs)));
  Doc.set("priority", JsonValue::number(double(R.Priority)));
  Doc.set("deadline_ms", JsonValue::number(double(R.DeadlineMs)));
  if (R.QueueMs >= 0)
    Doc.set("queue_ms", JsonValue::number(R.QueueMs));
  if (R.SolveMs >= 0)
    Doc.set("solve_ms", JsonValue::number(R.SolveMs));
  Doc.set("outcome", JsonValue::string(R.Outcome));
  Doc.set("source", JsonValue::string(R.Source));
  if (!R.Program.empty())
    Doc.set("program", JsonValue::string(R.Program));
  Doc.set("problem", R.Prob ? problemToJson(*R.Prob) : JsonValue::object());
  return Doc.dump(0);
}

TrafficRecord
morpheus::trafficArrival(uint64_t Job,
                         std::chrono::steady_clock::time_point Epoch,
                         const Problem &P, const EngineOptions &Opts,
                         const JobRequest &R) {
  TrafficRecord Rec;
  Rec.Job = Job;
  Rec.ArrivalNs =
      uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - Epoch)
                   .count());
  Rec.Fp = problemFingerprint(P, Opts);
  Rec.ExFp = exampleFingerprint(P.Inputs, P.Output);
  Rec.Priority = R.priority();
  Rec.DeadlineMs = uint64_t(R.deadline().count());
  Rec.Prob = std::make_shared<const Problem>(P);
  return Rec;
}

void morpheus::finishTrafficRecord(TrafficRecord &R, const Solution &S,
                                   std::string_view Source, double QueueMs,
                                   double SolveMs) {
  R.QueueMs = QueueMs;
  R.SolveMs = SolveMs;
  double ElapsedMs = std::max(QueueMs, 0.0) + std::max(SolveMs, 0.0);
  R.CompletedNs = R.ArrivalNs + uint64_t(std::llround(ElapsedMs * 1e6));
  R.Outcome = outcomeName(S.Result);
  R.Source = Source;
  R.Program = S.Program ? printSexp(S.Program) : std::string();
}
