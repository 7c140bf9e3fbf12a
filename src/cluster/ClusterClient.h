//===- cluster/ClusterClient.h - Fingerprint-sharded coordinator -*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster tier of a coordinator. A coordinator is one SynthService
/// (the front door: cache, single flight, deadlines, cancellation,
/// completion) with a ClusterClient attached as its RemoteTier: every miss
/// the service neither answers from cache nor coalesces comes here, is
/// consistent-hashed by the service's problem fingerprint across worker
/// nodes (cluster/WorkerNode.h, spoken to over net/Wire.h), and is
/// answered back into the service. Because placement is by fingerprint,
/// every repeated or sibling problem the front door's cache has lost
/// lands on the worker that holds its ResultCache entry, refutation scope
/// and durable warm state.
///
/// Scheduling/fault model (all decisions on one EventLoop thread):
///  - routing walks the hash ring from the fingerprint's owner: the first
///    worker that is Up and under its in-flight cap gets the job; an Up
///    worker at its cap queues it in a bounded per-link backlog; a link
///    still connecting holds jobs in backlog until its handshake settles;
///    links that are down (or refused the handshake) are skipped;
///  - a link failure — connect refusal, EOF, frame corruption — reroutes
///    everything outstanding or backlogged on it (attempt counter
///    incremented) and schedules a reconnect with exponential backoff;
///    after three remote tries a job fails back to the service's own pool;
///  - when every shard for a job is unavailable, the job fails back too
///    (fail-back, never failure);
///  - deadlines propagate: the Solve frame carries the remaining budget
///    and the worker's own reaper enforces it. The service's reaper
///    answers the caller at the deadline itself; a job nobody waits for
///    any more is cancelled on its shard, unless its propagated deadline
///    has passed and the shard is already stopping it.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_CLUSTER_CLUSTERCLIENT_H
#define MORPHEUS_CLUSTER_CLUSTERCLIENT_H

#include "cluster/HashRing.h"
#include "net/EventLoop.h"
#include "net/Socket.h"
#include "net/Wire.h"
#include "service/SynthService.h"

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

namespace morpheus {

/// Coordinator configuration.
struct ClusterOptions {
  std::vector<SockAddr> Workers;
  /// Solve frames a worker may hold unanswered before new jobs queue in
  /// its backlog. Sized to keep a worker's pool busy without burying a
  /// slow shard: the worker also has its own queue behind this.
  unsigned MaxInflightPerWorker = 8;
  int ConnectTimeoutMs = 2000;
  int ReconnectBackoffMs = 100; ///< initial; doubles per failure, to 5 s
};

/// Aggregate coordinator counters (monotonic since construction).
struct ClusterStats {
  uint64_t Submitted = 0;       ///< requests the front door accepted
  uint64_t Forwarded = 0;       ///< Solve frames sent (re-sends included)
  uint64_t RemoteCompleted = 0; ///< Result frames that answered a job
  uint64_t RemoteErrors = 0;    ///< Error frames (job then solved locally)
  uint64_t Failovers = 0;       ///< jobs rerouted off a failed link
  uint64_t LocalSolves = 0;     ///< jobs failed back to the local pool
  uint64_t WorkerUpEvents = 0;
  uint64_t WorkerDownEvents = 0;
  size_t WorkersUp = 0;                    ///< links Up right now
  std::vector<uint64_t> PerWorkerForwarded; ///< indexed like Workers
};

/// A JobHandle under the coordinator's older name: a stateless view that
/// forwards every call.
class ClusterJob {
public:
  ClusterJob() = default;
  explicit ClusterJob(JobHandle H) : H(std::move(H)) {}

  bool valid() const { return H.valid(); }
  const Solution &get() const { return H.get(); }
  bool waitFor(std::chrono::milliseconds Timeout) const {
    return H.waitFor(Timeout);
  }
  void cancel() const { H.cancel(); }
  std::string source() const { return std::string(resultSourceName(H.source())); }
  double queueMs() const { return H.queueMs(); }
  double solveMs() const { return H.solveMs(); }
  int worker() const { return H.worker(); }
  int attempts() const { return H.attempts(); }

private:
  JobHandle H;
};

class ClusterClient : private RemoteTier {
public:
  /// Attaches the cluster to \p Front: from now on its misses go to the
  /// workers. \p Front must outlive this client; the handshake digests
  /// come from its engine. Connections start immediately; jobs may
  /// arrive before any link is up (they ride the backlog or fail back per
  /// the routing rules above).
  ClusterClient(SynthService &Front, ClusterOptions COpts);
  /// A coordinator with a front door of its own, built from the same
  /// (library, engine options, service options) a single-node server
  /// would use.
  ClusterClient(ComponentLibrary Lib, EngineOptions EOpts,
                ServiceOptions SOpts, ClusterOptions COpts);
  /// Detaches from the front door (whatever is still out fails back to
  /// its pool) and closes every link.
  ~ClusterClient() override;

  ClusterClient(const ClusterClient &) = delete;
  ClusterClient &operator=(const ClusterClient &) = delete;

  /// Submits \p P to the front door; never blocks.
  ClusterJob submit(Problem P, JobRequest R = {}) {
    return ClusterJob(Front.submit(std::move(P), R));
  }

  /// Blocks until \p N links are Up or \p Timeout passes; true on success.
  /// Startup helper for tests and the CLI (submitting earlier is safe but
  /// routes past not-yet-connected shards).
  bool waitForWorkers(unsigned N, std::chrono::milliseconds Timeout) const;

  ClusterStats stats() const;
  SynthService &service() { return Front; }

private:
  struct Link;
  struct RJob;

  ClusterClient(std::unique_ptr<SynthService> Owned, ClusterOptions COpts);

  // RemoteTier: called under the service mutex; both only post.
  void dispatch(RemoteJob J) override;
  void stop(uint64_t Id) override;

  // All private methods below run on the loop thread.
  void connectLink(Link &L);
  void startHandshake(Link &L);
  void scheduleReconnect(Link &L);
  void onLinkEvent(Link &L, unsigned Events);
  void linkReadable(Link &L);
  void handleLinkPayload(Link &L, const std::string &Payload);
  void linkEstablished(Link &L);
  void linkFailed(Link &L, const char *Why);
  void flushLink(Link &L);
  void updateInterest(Link &L);
  void pumpBacklog(Link &L);
  void routeJob(RJob &J);
  void sendSolve(Link &L, RJob &J);
  void handleResult(Link &L, const WireMessage &M);
  void handleRemoteError(Link &L, const WireMessage &M);
  /// Hands \p J back to the front door's pool and forgets it.
  void failBack(RJob &J);
  void stopJob(uint64_t Id);
  /// Forgets \p J: detaches it from whatever link holds it (outstanding
  /// or backlog) and drops it from the job table.
  void forget(RJob &J);

  /// Only when this client built its own front door; declared first so
  /// it is destroyed last, after the loop that answers into it.
  std::unique_ptr<SynthService> OwnedFront;
  SynthService &Front;
  ClusterOptions COpts;
  uint64_t OptionsDigest = 0;
  uint64_t CompatKey = 0;
  HashRing Ring;

  EventLoop Loop;
  std::thread LoopThread;
  std::atomic<bool> ShuttingDown{false};

  // Loop-thread-confined link and job tables.
  std::vector<std::unique_ptr<Link>> Links;
  std::unordered_map<uint64_t, std::shared_ptr<RJob>> Jobs; ///< by job id

  mutable Mutex StatsM;
  mutable CondVar StatsChanged; ///< waitForWorkers sleeps here
  ClusterStats Counters GUARDED_BY(StatsM);
};

} // namespace morpheus

#endif // MORPHEUS_CLUSTER_CLUSTERCLIENT_H
