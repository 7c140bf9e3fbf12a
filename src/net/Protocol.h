//===- net/Protocol.h - The serve request/response schema -------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON-lines schema spoken by `morpheus serve`, factored out of the
/// CLI so every transport shares one parser and one serializer: the stdio
/// loop, the cluster coordinator (which answers the same schema while
/// forwarding jobs over the binary wire protocol, net/Wire.h), and tests.
///
/// Request (one JSON object per line):
///   {"id": any, "problem": {...}, "priority": n, "deadline_ms": n}
/// or a bare problem object. "id" defaults to the 1-based line number.
/// priority is clamped to ±1e6, deadline_ms capped at one day and a
/// positive deadline_ms below 1 rounded up to 1 — these are untrusted
/// client numbers.
///
/// Response (one JSON object per line):
///   {"id", "name", "outcome", "source", "seconds",
///    "queue_ms", "solve_ms",            — scheduling/solve split
///    "program": {"r", "sexp"},          — when solved
///    "stats": {"hypotheses", "candidates_checked"},
///    "worker"}                          — cluster only: shard index
/// or {"id", "error"} when the request never reached the service.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_NET_PROTOCOL_H
#define MORPHEUS_NET_PROTOCOL_H

#include "api/Engine.h"
#include "io/Json.h"

#include <chrono>
#include <optional>
#include <string>
#include <string_view>

namespace morpheus {

/// One parsed request line. Error is non-empty when the line failed to
/// parse or validate; Prob is engaged otherwise.
struct ServeRequest {
  JsonValue Id;
  std::string Error;
  std::optional<Problem> Prob;
  int Priority = 0;
  /// Submit-relative deadline; zero means none.
  std::chrono::milliseconds Deadline{0};
};

/// Parses one JSON-lines request. \p LineNo supplies the default id.
ServeRequest parseServeRequest(std::string_view Line, uint64_t LineNo);

/// One response, flattened for serialization. Timing fields below zero
/// are omitted from the output (old clients; error responses).
struct ServeResponse {
  JsonValue Id;
  std::string Name;
  std::string Error; ///< non-empty: emit {"id","error"} only
  std::string OutcomeStr;
  std::string SourceStr;
  double Seconds = 0;
  double QueueMs = -1; ///< submit → solve start (or cache hit)
  double SolveMs = -1; ///< solve start → done
  bool HasProgram = false;
  std::string ProgramR;
  std::string ProgramSexp;
  uint64_t Hypotheses = 0;
  uint64_t CandidatesChecked = 0;
  int Worker = -1; ///< cluster shard index; negative = omit
};

/// Serializes \p R as one JSON line (no trailing newline).
std::string serveResponseLine(const ServeResponse &R);

/// Builds the success-path response from a finished Solution. \p Source
/// is the resultSourceName (or a cluster-specific label); \p InputNames
/// feeds the emitted R program. Timing/Worker fields start unset.
ServeResponse makeServeResponse(JsonValue Id, const std::string &Name,
                                const std::vector<std::string> &InputNames,
                                const Solution &S, std::string_view Source);

} // namespace morpheus

#endif // MORPHEUS_NET_PROTOCOL_H
