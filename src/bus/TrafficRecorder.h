//===- bus/TrafficRecorder.h - Replayable service traffic log ---*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replayable traffic log: one JSON object per line (JSON-lines) per
/// served job, carrying everything needed to re-drive the job against a
/// fresh SynthService (bus/Replay.h):
///
///   {"v": 1, "job": 3, "fp": "0x9c…", "exfp": "0x4a…",
///    "arrival_ns": 18200, "completed_ns": 905000,
///    "priority": 0, "deadline_ms": 0,
///    "outcome": "solved", "source": "solve",
///    "program": "(select (filter x0 …) …)",
///    "problem": { …ProblemIO schema… }}
///
/// Fingerprints are hex strings (the JSON number type is a double and
/// cannot hold 64 bits). arrival_ns is the front door's submission time
/// on a clock shared by the whole recording, so replay derives
/// inter-arrival gaps from it; absolute values are meaningless across
/// runs. completed_ns is arrival_ns plus the job's queue and solve time.
///
/// The front door records: it stamps each request with
/// trafficArrival() as it submits it, completes the record with
/// finishTrafficRecord() from the finished handle (a JobHandle, or a
/// ClusterJob under `serve --cluster`) and writes trafficRecordToLine().
/// `morpheus serve --record` writes lines in request order; replay sorts
/// by arrival_ns, so any order is accepted.
///
/// The parse half (parseTrafficRecord / readTrafficLog) is deliberately
/// defensive — logs cross machine boundaries — and is fuzzed by
/// tests/IoFuzzTest.cpp (truncation, duplicate keys, invalid UTF-8,
/// byte mutations, out-of-range numbers): malformed input yields an error
/// message, never UB.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_BUS_TRAFFICRECORDER_H
#define MORPHEUS_BUS_TRAFFICRECORDER_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace morpheus {

class EngineOptions;
class JobRequest;
struct Problem;
struct Solution;

/// One parsed log line: a served job, replayable.
struct TrafficRecord {
  uint64_t Job = 0;         ///< submission-order id (unique per recording)
  uint64_t Fp = 0;          ///< problem fingerprint at record time
  uint64_t ExFp = 0;        ///< example fingerprint
  uint64_t ArrivalNs = 0;   ///< submission time (see file comment)
  uint64_t CompletedNs = 0; ///< ArrivalNs + queue + solve
  int64_t Priority = 0;
  uint64_t DeadlineMs = 0; ///< 0 = no deadline
  /// Scheduling latency split as the job's handle reports it: queue wait
  /// and solve duration in milliseconds. Negative = not recorded — logs
  /// from before these fields existed parse (and re-serialize) without
  /// them.
  double QueueMs = -1;
  double SolveMs = -1;
  std::string Outcome;     ///< outcomeName() at record time
  std::string Source;      ///< resultSourceName() at record time
  std::string Program;     ///< solved program s-expression; empty if none
  std::shared_ptr<const Problem> Prob; ///< the problem itself
};

/// Parses one log line. Returns nullopt (with \p Err when non-null) on any
/// schema or JSON violation; never throws, never crashes on garbage.
std::optional<TrafficRecord> parseTrafficRecord(std::string_view Line,
                                                std::string *Err = nullptr);

/// Reads a whole log file: every non-empty line must parse. On failure
/// returns nullopt with \p Err naming the first bad line.
std::optional<std::vector<TrafficRecord>>
readTrafficLog(const std::string &Path, std::string *Err = nullptr);

/// Serializes \p R as one compact JSON line (no trailing newline) —
/// the exact inverse of parseTrafficRecord.
std::string trafficRecordToLine(const TrafficRecord &R);

/// The submission half of a record, stamped by a front door as it submits
/// \p P under \p R: \p Job (unique per recording, increasing in
/// submission order), the arrival time (nanoseconds from \p Epoch, the
/// recording's start, to now), the problem and example fingerprints under
/// \p Opts (the serving engine's options), priority, deadline and a
/// snapshot of \p P (cheap: tables share their columns).
TrafficRecord trafficArrival(uint64_t Job,
                             std::chrono::steady_clock::time_point Epoch,
                             const Problem &P, const EngineOptions &Opts,
                             const JobRequest &R);

/// Completes \p R from its finished job: outcome and program from \p S,
/// \p Source (a resultSourceName, or a coordinator verdict such as
/// "deadline"), and the handle's queue/solve split in milliseconds
/// (negative = unknown; that field is left out of the line and counts as 0
/// in CompletedNs = ArrivalNs + queue + solve).
void finishTrafficRecord(TrafficRecord &R, const Solution &S,
                         std::string_view Source, double QueueMs,
                         double SolveMs);

} // namespace morpheus

#endif // MORPHEUS_BUS_TRAFFICRECORDER_H
