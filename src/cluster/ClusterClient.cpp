//===- cluster/ClusterClient.cpp - Fingerprint-sharded coordinator --------===//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/ClusterClient.h"

#include "cluster/Handshake.h"
#include "io/Json.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "service/WarmState.h"

#include <algorithm>
#include <chrono>

using namespace morpheus;
using std::chrono::steady_clock;

namespace {
/// Remote delivery attempts before a job fails back to the local pool.
constexpr int MaxAttempts = 3;
constexpr int ReconnectBackoffMaxMs = 5000;
constexpr size_t BacklogPerWorker = 256;
} // namespace

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

/// One worker connection and everything scheduled onto it. Loop-thread
/// confined (like WorkerNode's Conn).
struct ClusterClient::Link {
  enum class Phase {
    Down,        ///< no socket; reconnect timer may be pending
    Connecting,  ///< non-blocking connect in flight
    Handshaking, ///< Hello sent, HelloAck awaited
    Up,          ///< jobs flow
    Refused      ///< handshake rejected: incompatible peer, never retried
  };

  int Index = -1;
  SockAddr Addr;
  Phase St = Phase::Down;
  int Fd = -1;
  FrameDecoder Dec;
  std::string OutBuf;
  /// Job ids sent and awaiting a Result/Error (the in-flight cap counts
  /// these).
  std::vector<uint64_t> Outstanding;
  /// Job ids routed here but not yet sent (cap reached, or still
  /// connecting).
  std::deque<uint64_t> Backlog;
  int BackoffMs = 0;
  uint64_t RetryTimer = 0;   ///< reconnect backoff; 0 = none
  uint64_t ConnectTimer = 0; ///< connect timeout; 0 = none
  std::string Name;          ///< announced in the HelloAck
};

/// One job the front door handed over. Loop-thread confined; the wire
/// request id is the job's id.
struct ClusterClient::RJob {
  RemoteJob Job;
  std::string ProbJson;    ///< serialized at the first send
  int Attempts = 0;        ///< remote deliveries consumed
  int AssignedWorker = -1; ///< link holding it (outstanding or backlog)
  bool SentRemote = false; ///< on AssignedWorker's Outstanding list
};

static void eraseValue(std::vector<uint64_t> &V, uint64_t X) {
  V.erase(std::remove(V.begin(), V.end(), X), V.end());
}

static void eraseValue(std::deque<uint64_t> &D, uint64_t X) {
  D.erase(std::remove(D.begin(), D.end(), X), D.end());
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

ClusterClient::ClusterClient(SynthService &FrontIn, ClusterOptions COptsIn)
    : Front(FrontIn), COpts(std::move(COptsIn)),
      Ring(unsigned(COpts.Workers.size())) {
  const Engine &E = Front.engine();
  OptionsDigest = clusterOptionsDigest(E.options());
  CompatKey = warmStateCompatKey(E.library(), E.options().config());
  {
    MutexLock Lock(StatsM);
    Counters.PerWorkerForwarded.assign(COpts.Workers.size(), 0);
  }

  Links.reserve(COpts.Workers.size());
  for (size_t I = 0; I != COpts.Workers.size(); ++I) {
    auto L = std::make_unique<Link>();
    L->Index = int(I);
    L->Addr = COpts.Workers[I];
    L->BackoffMs = COpts.ReconnectBackoffMs;
    Links.push_back(std::move(L));
  }
  Loop.post([this] {
    for (auto &L : Links)
      connectLink(*L);
  });
  LoopThread = std::thread([this] { Loop.run(); });
  Front.attachRemote(this);
}

ClusterClient::ClusterClient(ComponentLibrary Lib, EngineOptions EOpts,
                             ServiceOptions SOpts, ClusterOptions COpts)
    : ClusterClient(std::make_unique<SynthService>(
                        Engine(std::move(Lib), std::move(EOpts)), SOpts),
                    std::move(COpts)) {}

ClusterClient::ClusterClient(std::unique_ptr<SynthService> Owned,
                             ClusterOptions COpts)
    : ClusterClient(*Owned, std::move(COpts)) {
  OwnedFront = std::move(Owned);
}

ClusterClient::~ClusterClient() {
  ShuttingDown.store(true);
  // From here the front door takes no answer from this client: what is
  // still out is back in its queue.
  Front.attachRemote(nullptr);
  Loop.post([this] {
    for (auto &L : Links) {
      if (L->Fd >= 0) {
        Loop.removeFd(L->Fd);
        closeFd(L->Fd);
        L->Fd = -1;
      }
    }
    Loop.stop();
  });
  LoopThread.join();
}

//===----------------------------------------------------------------------===//
// Jobs from the front door
//===----------------------------------------------------------------------===//

void ClusterClient::dispatch(RemoteJob Job) {
  Loop.post([this, Job = std::move(Job)] {
    auto J = std::make_shared<RJob>();
    J->Job = Job;
    Jobs.emplace(Job.id(), J);
    routeJob(*J);
  });
}

void ClusterClient::stop(uint64_t Id) {
  Loop.post([this, Id] { stopJob(Id); });
}

void ClusterClient::stopJob(uint64_t Id) {
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return; // already answered or failed back
  std::shared_ptr<RJob> J = It->second;
  int Worker = J->SentRemote ? J->AssignedWorker : -1;
  forget(*J);
  // Past its propagated deadline the shard is stopping the solve itself;
  // a Cancel would only race it.
  auto Deadline = J->Job.deadline();
  if (Worker < 0 || (Deadline && steady_clock::now() >= *Deadline))
    return;
  Link &L = *Links[size_t(Worker)];
  if (L.St != Link::Phase::Up)
    return;
  WireMessage C;
  C.Type = MsgType::Cancel;
  C.ReqId = Id;
  L.OutBuf += encodeFrame(encodeMessage(C));
  flushLink(L);
}

void ClusterClient::forget(RJob &J) {
  if (J.AssignedWorker >= 0) {
    Link &L = *Links[size_t(J.AssignedWorker)];
    eraseValue(L.Outstanding, J.Job.id());
    eraseValue(L.Backlog, J.Job.id());
  }
  Jobs.erase(J.Job.id()); // J dangles past this line
}

void ClusterClient::failBack(RJob &J) {
  {
    MutexLock Lock(StatsM);
    ++Counters.LocalSolves;
  }
  J.Job.failBack(J.Attempts);
  forget(J);
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

void ClusterClient::routeJob(RJob &J) {
  J.SentRemote = false;
  J.AssignedWorker = -1;
  if (!Links.empty() && J.Attempts < MaxAttempts) {
    std::vector<int> Order = Ring.walk(J.Job.fingerprint(), Links.size());
    Link *BacklogTo = nullptr;
    for (int W : Order) {
      Link &L = *Links[size_t(W)];
      switch (L.St) {
      case Link::Phase::Refused:
      case Link::Phase::Down:
        continue; // never / not currently reachable
      case Link::Phase::Up:
        if (L.Outstanding.size() < COpts.MaxInflightPerWorker) {
          sendSolve(L, J);
          return;
        }
        if (!BacklogTo && L.Backlog.size() < BacklogPerWorker)
          BacklogTo = &L; // its cap will free as results return
        continue;
      case Link::Phase::Connecting:
      case Link::Phase::Handshaking:
        // Plausible soon: park the job here rather than solving it
        // locally the moment the cluster starts up. A failed connect
        // reroutes the backlog (linkFailed), so nothing is stranded.
        if (!BacklogTo && L.Backlog.size() < BacklogPerWorker)
          BacklogTo = &L;
        continue;
      }
    }
    if (BacklogTo) {
      J.AssignedWorker = BacklogTo->Index;
      BacklogTo->Backlog.push_back(J.Job.id());
      return;
    }
  }
  failBack(J);
}

void ClusterClient::sendSolve(Link &L, RJob &J) {
  uint64_t DeadlineMs = 0;
  if (auto Deadline = J.Job.deadline()) {
    auto Now = steady_clock::now();
    if (Now >= *Deadline) {
      // The budget died in a backlog / on a failed link: the front
      // door's reaper answers (or already answered) its waiters, so
      // burning a worker on it helps nobody.
      forget(J);
      return;
    }
    // The worker's reaper enforces the remaining budget, measured from
    // *its* submission — queue time already spent here is subtracted.
    DeadlineMs = uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                              *Deadline - Now)
                              .count());
    if (DeadlineMs == 0)
      DeadlineMs = 1;
  }
  // Serialized here, once: it walks the whole problem, and the submitting
  // thread holds the service mutex while it hands the job over.
  if (J.ProbJson.empty())
    J.ProbJson = problemToJson(J.Job.problem()).dump();

  ++J.Attempts;
  J.SentRemote = true;
  J.AssignedWorker = L.Index;
  L.Outstanding.push_back(J.Job.id());
  {
    MutexLock Lock(StatsM);
    ++Counters.Forwarded;
    ++Counters.PerWorkerForwarded[size_t(L.Index)];
  }

  WireMessage M;
  M.Type = MsgType::Solve;
  M.ReqId = J.Job.id();
  M.Priority = J.Job.priority();
  M.DeadlineMs = DeadlineMs;
  M.ProblemJson = J.ProbJson;
  L.OutBuf += encodeFrame(encodeMessage(M));
  // May fail and reroute J (and everything else on L) via linkFailed — no
  // touching J past this point.
  flushLink(L);
}

//===----------------------------------------------------------------------===//
// Link lifecycle
//===----------------------------------------------------------------------===//

void ClusterClient::connectLink(Link &L) {
  if (ShuttingDown.load() || L.St == Link::Phase::Refused)
    return;
  bool InProgress = false;
  std::string Err;
  int Fd = connectTcp(L.Addr, InProgress, &Err);
  if (Fd < 0) {
    scheduleReconnect(L);
    return;
  }
  L.Fd = Fd;
  L.Dec = FrameDecoder();
  L.OutBuf.clear();
  L.St = Link::Phase::Connecting;
  Loop.addFd(Fd, EvRead | EvWrite, [this, Idx = L.Index](unsigned Events) {
    onLinkEvent(*Links[size_t(Idx)], Events);
  });
  L.ConnectTimer =
      Loop.addTimer(COpts.ConnectTimeoutMs, [this, Idx = L.Index] {
        Link &T = *Links[size_t(Idx)];
        T.ConnectTimer = 0;
        if (T.St == Link::Phase::Connecting ||
            T.St == Link::Phase::Handshaking)
          linkFailed(T, "connect timeout");
      });
  if (!InProgress)
    startHandshake(L);
}

void ClusterClient::startHandshake(Link &L) {
  L.St = Link::Phase::Handshaking;
  WireMessage H;
  H.Type = MsgType::Hello;
  H.Version = WireVersion;
  H.OptionsDigest = OptionsDigest;
  H.CompatKey = CompatKey;
  H.Text = "coordinator";
  L.OutBuf += encodeFrame(encodeMessage(H));
  flushLink(L);
}

void ClusterClient::scheduleReconnect(Link &L) {
  if (ShuttingDown.load() || L.St == Link::Phase::Refused || L.RetryTimer)
    return;
  int Delay = L.BackoffMs;
  L.BackoffMs = std::min(L.BackoffMs * 2, ReconnectBackoffMaxMs);
  L.RetryTimer = Loop.addTimer(Delay, [this, Idx = L.Index] {
    Link &T = *Links[size_t(Idx)];
    T.RetryTimer = 0;
    if (T.St == Link::Phase::Down)
      connectLink(T);
  });
}

void ClusterClient::onLinkEvent(Link &L, unsigned Events) {
  if (Events & EvError) {
    linkFailed(L, "socket error");
    return;
  }
  if (L.St == Link::Phase::Connecting && (Events & EvWrite)) {
    std::string Err;
    if (!connectFinished(L.Fd, &Err)) {
      linkFailed(L, "connect failed");
      return;
    }
    startHandshake(L);
    if (L.Fd < 0)
      return; // the handshake flush failed the link
  } else if (Events & EvWrite) {
    flushLink(L);
    if (L.Fd < 0)
      return;
  }
  if (Events & EvRead)
    linkReadable(L);
}

void ClusterClient::linkReadable(Link &L) {
  for (;;) {
    size_t N = 0;
    std::string Chunk;
    IoStatus St = readSome(L.Fd, Chunk, 1 << 16, N);
    if (St == IoStatus::Ok) {
      L.Dec.feed(Chunk);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    linkFailed(L, "peer closed"); // EOF or hard error
    return;
  }
  std::string Payload;
  for (;;) {
    FrameDecoder::Status St = L.Dec.take(Payload);
    if (St == FrameDecoder::Status::NeedMore)
      break;
    if (St == FrameDecoder::Status::Corrupt) {
      linkFailed(L, "corrupt frame");
      return;
    }
    handleLinkPayload(L, Payload);
    if (L.Fd < 0)
      return; // the handler failed the link
  }
}

void ClusterClient::handleLinkPayload(Link &L, const std::string &Payload) {
  std::optional<WireMessage> M = decodeMessage(Payload);
  if (!M) {
    linkFailed(L, "undecodable message");
    return;
  }
  switch (M->Type) {
  case MsgType::HelloAck:
    if (L.St != Link::Phase::Handshaking) {
      linkFailed(L, "unexpected HelloAck");
      return;
    }
    if (!M->Accepted) {
      // Incompatible peer (options digest / compat key / wire version):
      // permanent — retrying cannot change the answer. Reroute whatever
      // was parked here; the ring walk now skips this link.
      if (L.ConnectTimer) {
        Loop.cancelTimer(L.ConnectTimer);
        L.ConnectTimer = 0;
      }
      Loop.removeFd(L.Fd);
      closeFd(L.Fd);
      L.Fd = -1;
      L.St = Link::Phase::Refused;
      std::deque<uint64_t> Parked;
      Parked.swap(L.Backlog);
      for (uint64_t Id : Parked) {
        auto It = Jobs.find(Id);
        if (It == Jobs.end())
          continue;
        It->second->AssignedWorker = -1;
        routeJob(*It->second);
      }
      return;
    }
    linkEstablished(L);
    L.Name = M->Text;
    return;
  case MsgType::Result:
    handleResult(L, *M);
    return;
  case MsgType::Error:
    handleRemoteError(L, *M);
    return;
  case MsgType::Hello:
  case MsgType::Solve:
  case MsgType::Cancel:
    // Worker-bound messages arriving at the coordinator: a confused peer.
    linkFailed(L, "unexpected message");
    return;
  }
}

void ClusterClient::linkEstablished(Link &L) {
  if (L.ConnectTimer) {
    Loop.cancelTimer(L.ConnectTimer);
    L.ConnectTimer = 0;
  }
  L.St = Link::Phase::Up;
  L.BackoffMs = COpts.ReconnectBackoffMs; // a clean handshake resets backoff
  {
    MutexLock Lock(StatsM);
    ++Counters.WorkerUpEvents;
    ++Counters.WorkersUp;
  }
  StatsChanged.notify_all();
  pumpBacklog(L);
}

void ClusterClient::linkFailed(Link &L, const char *) {
  bool WasUp = L.St == Link::Phase::Up;
  if (L.ConnectTimer) {
    Loop.cancelTimer(L.ConnectTimer);
    L.ConnectTimer = 0;
  }
  if (L.Fd >= 0) {
    Loop.removeFd(L.Fd);
    closeFd(L.Fd);
    L.Fd = -1;
  }
  L.Dec = FrameDecoder();
  L.OutBuf.clear();
  L.St = Link::Phase::Down;

  std::vector<uint64_t> Orphans(L.Outstanding.begin(), L.Outstanding.end());
  Orphans.insert(Orphans.end(), L.Backlog.begin(), L.Backlog.end());
  L.Outstanding.clear();
  L.Backlog.clear();

  if (WasUp) {
    {
      MutexLock Lock(StatsM);
      ++Counters.WorkerDownEvents;
      if (Counters.WorkersUp)
        --Counters.WorkersUp;
      Counters.Failovers += Orphans.size();
    }
    StatsChanged.notify_all();
  }

  // Reroute every job this link held. Attempts were counted at send time,
  // so a job bounced off enough dead links fails back to the local pool.
  for (uint64_t Id : Orphans) {
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue;
    RJob &J = *It->second;
    J.SentRemote = false;
    J.AssignedWorker = -1;
    routeJob(J);
  }
  scheduleReconnect(L);
}

void ClusterClient::flushLink(Link &L) {
  while (!L.OutBuf.empty()) {
    size_t N = 0;
    IoStatus St = writeSome(L.Fd, L.OutBuf, N);
    if (St == IoStatus::Ok) {
      L.OutBuf.erase(0, N);
      continue;
    }
    if (St == IoStatus::WouldBlock)
      break;
    linkFailed(L, "write failed");
    return;
  }
  updateInterest(L);
}

void ClusterClient::updateInterest(Link &L) {
  if (L.Fd >= 0)
    Loop.modifyFd(L.Fd, L.OutBuf.empty() ? EvRead : (EvRead | EvWrite));
}

void ClusterClient::pumpBacklog(Link &L) {
  while (L.St == Link::Phase::Up && !L.Backlog.empty() &&
         L.Outstanding.size() < COpts.MaxInflightPerWorker) {
    uint64_t Id = L.Backlog.front();
    L.Backlog.pop_front();
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue; // stopped or dropped while parked
    sendSolve(L, *It->second); // may fail the link; the loop guard exits
  }
}

//===----------------------------------------------------------------------===//
// Remote completions
//===----------------------------------------------------------------------===//

void ClusterClient::handleResult(Link &L, const WireMessage &M) {
  eraseValue(L.Outstanding, M.ReqId);
  auto It = Jobs.find(M.ReqId);
  if (It == Jobs.end()) {
    pumpBacklog(L); // late answer for a cancelled/expired job: slot freed
    return;
  }
  std::shared_ptr<RJob> J = It->second;
  if (!J->SentRemote || J->AssignedWorker != L.Index) {
    // Stale: the job was rerouted off this link (it answered after being
    // declared dead). Whoever holds it now will answer.
    pumpBacklog(L);
    return;
  }

  // An out-of-range outcome is garbage; an unsolicited Cancelled is a
  // worker giving up for its own reasons (e.g. its shutdown path) — the
  // coordinator forgets a job before cancelling it, so no Result for its
  // own cancels lands here and this job still wants an answer. Both fail
  // over.
  bool Bad = M.OutcomeCode > uint32_t(Outcome::Exhausted) ||
             M.OutcomeCode == uint32_t(Outcome::Cancelled);
  Solution S;
  if (!Bad) {
    S.Result = Outcome(M.OutcomeCode);
    S.Seconds = M.Seconds;
    S.Stats.HypothesesExplored = M.Hypotheses;
    S.Stats.CandidatesChecked = M.Candidates;
    if (!M.Program.empty()) {
      std::string Err;
      S.Program = parseSexp(M.Program, Front.engine().library(), &Err);
      if (!S.Program && S.Result == Outcome::Solved)
        Bad = true; // "solved" but the program does not parse
    }
  }
  if (Bad) {
    // The shard answered garbage; trust nothing from it for this job and
    // fail it back (skipping further remote attempts).
    {
      MutexLock Lock(StatsM);
      ++Counters.RemoteErrors;
    }
    failBack(*J);
    pumpBacklog(L);
    return;
  }

  {
    MutexLock Lock(StatsM);
    ++Counters.RemoteCompleted;
  }
  J->Job.complete(S, L.Index, J->Attempts);
  forget(*J);
  pumpBacklog(L);
}

void ClusterClient::handleRemoteError(Link &L, const WireMessage &M) {
  eraseValue(L.Outstanding, M.ReqId);
  auto It = Jobs.find(M.ReqId);
  if (It == Jobs.end()) {
    pumpBacklog(L);
    return;
  }
  std::shared_ptr<RJob> J = It->second;
  if (!J->SentRemote || J->AssignedWorker != L.Index) {
    pumpBacklog(L);
    return;
  }
  // A worker-side refusal ("queue full", "bad problem") is not a link
  // failure — the connection stays up — but re-sending the same bytes is
  // pointless, so the job fails straight back to the local pool.
  {
    MutexLock Lock(StatsM);
    ++Counters.RemoteErrors;
  }
  failBack(*J);
  pumpBacklog(L);
}

//===----------------------------------------------------------------------===//
// Observation
//===----------------------------------------------------------------------===//

ClusterStats ClusterClient::stats() const {
  uint64_t Submitted = Front.stats().Submitted;
  MutexLock Lock(StatsM);
  ClusterStats S = Counters;
  S.Submitted = Submitted;
  return S;
}

bool ClusterClient::waitForWorkers(unsigned N,
                                   std::chrono::milliseconds Timeout) const {
  UniqueLock Lock(StatsM);
  return StatsChanged.wait_for(Lock, Timeout,
                               [this, N] { return Counters.WorkersUp >= N; });
}
