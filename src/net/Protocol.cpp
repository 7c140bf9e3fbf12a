//===- net/Protocol.cpp - The serve request/response schema ---------------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"

#include "io/ProblemIO.h"
#include "io/ProgramIO.h"

#include <algorithm>
#include <cmath>

namespace morpheus {

ServeRequest parseServeRequest(std::string_view Line, uint64_t LineNo) {
  ServeRequest Req;
  Req.Id = JsonValue::number(double(LineNo));

  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Line, &Err);
  if (!Doc) {
    Req.Error = "parse error: " + Err;
    return Req;
  }
  if (const JsonValue *ReqId = Doc->find("id"))
    Req.Id = *ReqId;

  // A request is either {"id", "problem": {...}, "priority",
  // "deadline_ms"} or a bare problem object.
  const JsonValue *ProblemDoc = Doc->find("problem");
  if (!ProblemDoc)
    ProblemDoc = &*Doc;
  std::optional<Problem> P = problemFromJson(*ProblemDoc, &Err);
  if (!P) {
    Req.Error = Err;
    return Req;
  }

  // Untrusted numbers: clamp before narrowing (double -> int outside the
  // target range is UB, and clients control these fields).
  if (const JsonValue *Prio = Doc->find("priority");
      Prio && Prio->isNumber() && std::isfinite(Prio->Num))
    Req.Priority = int(std::min(1e6, std::max(-1e6, Prio->Num)));
  // A positive deadline below 1 ms rounds up to 1 ms: truncating it to 0
  // would read as "no deadline" (ClusterClient::sendSolve does the same).
  if (const JsonValue *Dl = Doc->find("deadline_ms");
      Dl && Dl->isNumber() && std::isfinite(Dl->Num) && Dl->Num > 0)
    Req.Deadline = std::chrono::milliseconds(
        std::max(1L, long(std::min(Dl->Num, 86400000.0)))); // cap: one day

  Req.Prob = std::move(P);
  return Req;
}

std::string serveResponseLine(const ServeResponse &R) {
  JsonValue Out = JsonValue::object();
  Out.set("id", R.Id);
  if (!R.Error.empty()) {
    Out.set("error", JsonValue::string(R.Error));
    return Out.dump();
  }
  if (!R.Name.empty())
    Out.set("name", JsonValue::string(R.Name));
  Out.set("outcome", JsonValue::string(R.OutcomeStr));
  Out.set("source", JsonValue::string(R.SourceStr));
  Out.set("seconds", JsonValue::number(R.Seconds));
  if (R.QueueMs >= 0)
    Out.set("queue_ms", JsonValue::number(R.QueueMs));
  if (R.SolveMs >= 0)
    Out.set("solve_ms", JsonValue::number(R.SolveMs));
  if (R.HasProgram) {
    JsonValue Prog = JsonValue::object();
    Prog.set("r", JsonValue::string(R.ProgramR));
    Prog.set("sexp", JsonValue::string(R.ProgramSexp));
    Out.set("program", std::move(Prog));
  }
  JsonValue Stats = JsonValue::object();
  Stats.set("hypotheses", JsonValue::number(double(R.Hypotheses)));
  Stats.set("candidates_checked",
            JsonValue::number(double(R.CandidatesChecked)));
  Out.set("stats", std::move(Stats));
  if (R.Worker >= 0)
    Out.set("worker", JsonValue::number(double(R.Worker)));
  return Out.dump();
}

ServeResponse makeServeResponse(JsonValue Id, const std::string &Name,
                                const std::vector<std::string> &InputNames,
                                const Solution &S, std::string_view Source) {
  ServeResponse R;
  R.Id = std::move(Id);
  R.Name = Name;
  R.OutcomeStr = std::string(outcomeName(S.Result));
  R.SourceStr = std::string(Source);
  R.Seconds = S.Seconds;
  if (S) {
    R.HasProgram = true;
    R.ProgramR = emitRProgram(S.Program, InputNames);
    R.ProgramSexp = printSexp(S.Program);
  }
  R.Hypotheses = S.Stats.HypothesesExplored;
  R.CandidatesChecked = S.Stats.CandidatesChecked;
  return R;
}

} // namespace morpheus
