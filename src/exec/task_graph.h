#ifndef FEDAQP_EXEC_TASK_GRAPH_H_
#define FEDAQP_EXEC_TASK_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/status.h"

namespace fedaqp {

class ProviderEndpoint;
class ThreadPool;

/// Which protocol step a task node performs. Part of the node key and of
/// the deterministic first-error order (lower phases report first).
enum class TaskPhase : uint8_t {
  kSummary = 0,   // provider-side Open: cover + DP summary (steps 1-2)
  kAllocate = 1,  // aggregator-side allocation (step 3)
  kEstimate = 2,  // provider-side sample/scan/estimate or exact bypass
                  // (4-6); ends the provider's session
  kCombine = 3,   // aggregator-side combination + release (step 7)
  kDeliver = 4,   // per-query outcome callback to the session layer
  kScan = 5,      // intra-provider shard work fanned under a phase node
  kGeneric = 6,   // anything outside the protocol (tests, tools)
};

const char* TaskPhaseName(TaskPhase phase);

/// Node key of the unified scheduler: (query, phase, provider, shard).
/// Keys need not be unique — they name work for diagnostics and order
/// failures deterministically; identity is the TaskId. The shard slot
/// keys explicitly materialized shard nodes (phase kScan); the common
/// shard path — FanOut below — instead runs shards as anonymous child
/// work whose time and errors are attributed to the owning phase node.
struct TaskKey {
  /// Provider slot used by aggregator/coordinator-side nodes.
  static constexpr uint32_t kCoordinator = 0xffffffffu;

  uint64_t query = 0;
  TaskPhase phase = TaskPhase::kGeneric;
  uint32_t provider = kCoordinator;
  uint32_t shard = 0;

  std::string ToString() const;
};

/// Deterministic node order for first-error reporting: by query, then
/// phase, then provider, then shard — never by completion time.
bool TaskKeyLess(const TaskKey& a, const TaskKey& b);

/// Scheduling hints attached to a node at Add time. Ready nodes are
/// drained most-urgent-first: lower `priority` value first, then earlier
/// `deadline`, then smaller TaskKey, then insertion order — a total
/// order, so the drain sequence is deterministic for a given graph (the
/// property the deadline/priority tests pin). Dependencies always
/// dominate: urgency only orders nodes that are simultaneously ready,
/// it never runs a node before its deps.
struct TaskOptions {
  /// 0 = most urgent. The session layer maps high/normal/low to 0/1/2.
  uint8_t priority = 1;
  /// Absolute deadline on the caller's clock; only compared against
  /// other nodes' deadlines (earlier = more urgent), never against the
  /// wall clock. Infinity = none.
  double deadline = std::numeric_limits<double>::infinity();
};

/// Dependency-tracking scheduler over (query, provider, phase, shard) task
/// nodes: the barrier-free replacement for the orchestrator's lock-step
/// `ParallelFor` phases. Nodes become ready when every dependency has
/// finished (successfully or not — dependents run regardless and inspect
/// shared state themselves, which is how the orchestrator keeps its
/// per-query failure semantics identical to the barrier path) and are
/// drained by the pool's workers plus the `Run` caller. Endpoint-bound
/// nodes are issued through `ProviderEndpoint::IssueAsync`, so a
/// transport-backed endpoint can park the call on its own dispatch thread
/// and free the worker — one slow provider never stalls the graph.
///
/// Ready queue: one heap under the graph's mutex, drained at every pool
/// size in the strict total order (claim token, priority, deadline,
/// TaskKey, seq), so low-priority nodes run last among ready work and
/// single-threaded drains are bit-for-bit reproducible. Wakeups are
/// batched: a burst of newly-ready nodes costs one condvar signal, and
/// sleepers are signalled only when someone is actually asleep.
/// Endpoint affinity: when a node run by a drainer releases its
/// endpoint's admission slot to a parked node, that drainer runs the
/// parked node next, bypassing the heap, unless a claim token or a node
/// of higher priority or earlier deadline is ready; a provider's calls
/// then stay on one core. Only multi-drainer runs park nodes, so
/// single-threaded drains keep the strict order.
///
/// Error containment: a node body returns Status (exceptions are caught
/// and converted); failures never cancel other nodes. `FirstError()`
/// reports the failed node that is smallest in deterministic key order,
/// independent of scheduling.
///
/// Determinism contract: like ParallelFor, the graph guarantees nothing
/// about the order in which *independent* nodes run, only that each runs
/// exactly once after its dependencies. Callers needing reproducible
/// output must key any randomness per node/session, never share a stream
/// across unordered nodes — the federation code is structured this way
/// (per-session provider RNG, aggregator draws chained by explicit
/// dependencies), which is what keeps answers bit-identical for every
/// pool size, priority mix, and schedule interleaving.
///
/// Lifecycle: build with Add (deps must already exist), call Run() exactly
/// once, then read statuses. Task bodies may Add further nodes and may
/// call FanOut; both are thread-safe. The graph must outlive Run() only —
/// it joins nothing at destruction (Run returns only after every worker
/// has left the graph).
class TaskGraph {
 public:
  using TaskId = size_t;
  static constexpr TaskId kNoTask = std::numeric_limits<size_t>::max();

  /// A null (or single-thread) pool runs the whole graph inline on the
  /// Run() caller, in deterministic ready-queue (urgency) order.
  explicit TaskGraph(ThreadPool* pool);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node that runs `body` once every task in `deps` has finished.
  /// When `endpoint` is non-null the ready node is issued through
  /// `endpoint->IssueAsync` instead of running directly on the draining
  /// worker. `options` carries the node's urgency.
  /// Safe to call from inside running task bodies; `deps` must name
  /// already-added tasks.
  TaskId Add(const TaskKey& key, std::function<Status()> body,
             const std::vector<TaskId>& deps = {},
             ProviderEndpoint* endpoint = nullptr,
             const TaskOptions& options = {});

  /// Runs every node (including ones added while running) to completion.
  /// The caller participates in draining; pool workers help. Call once.
  void Run();

  /// Post-Run introspection.
  size_t num_tasks() const;
  Status status(TaskId id) const;
  /// Status of the smallest-keyed failed node (OK when none failed).
  Status FirstError() const;
  /// Longest dependency chain, weighted by measured per-node body seconds
  /// (async dispatch wait excluded): the latency floor no amount of
  /// parallelism can beat for this batch.
  double CriticalPathSeconds() const;

  /// From inside a running task: runs body(0..n-1) as shard children of
  /// the current node, sharing the graph's ready queue and workers with
  /// every other node (one scheduler for intra- and inter-provider work),
  /// and returns when all n ran. Children are claim tokens, not keyed
  /// nodes: their wall time lands in the parent's measured seconds (the
  /// parent blocks on them) and their errors are the parent's to report.
  /// Claim tokens outrank every queued node — they extend work already
  /// running, so finishing them first unblocks parents soonest. The
  /// caller drains its own children while waiting, so this cannot
  /// deadlock even when every worker is busy. Bodies must not throw
  /// (wrap and rethrow caller-side, as ForEachShard does).
  void FanOut(size_t n, const std::function<void(size_t)>& body);

  /// The graph whose task is executing on the current thread; null
  /// outside task bodies. How blocking code deep in the storage layer
  /// (ForEachShard) discovers it should fan out onto the graph instead
  /// of nesting a second ParallelFor layer.
  static TaskGraph* Current();

 private:
  struct Node {
    TaskKey key;
    std::function<Status()> body;
    ProviderEndpoint* endpoint = nullptr;
    TaskOptions options;
    std::vector<TaskId> deps;
    std::vector<TaskId> dependents;
    size_t unmet_deps = 0;
    bool done = false;
    /// True while this node occupies its endpoint's admission gate (set
    /// on admission or promotion).
    bool holds_gate = false;
    Status result = Status::OK();
    double seconds = 0.0;
  };

  /// One in-task fan-out: an index dispenser shared by the parent and any
  /// worker that pops a claim token from the ready queue. Tokens popped
  /// after the batch drained are no-ops, so stale tokens are harmless.
  struct ChildBatch {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* body = nullptr;
  };

  /// A node ProcessItem is executing synchronously on this thread, and
  /// the next node OnNodeDone handed to the same thread (kNoTask: none).
  struct Handoff {
    TaskGraph* graph;
    TaskId next;
  };
  /// Points at ProcessItem's Handoff only while it executes a node on
  /// this thread, so a completion on a transport dispatch thread never
  /// hands work to a drainer.
  static thread_local Handoff* tls_handoff_;

  /// Ready-queue entry: a node, or a claim token for a child batch,
  /// carrying the urgency fields the heap orders by (copied from the
  /// node so ordering needs no nodes_ lookups).
  struct ReadyItem {
    TaskId node = kNoTask;
    std::shared_ptr<ChildBatch> batch;
    uint8_t priority = 0;
    double deadline = -std::numeric_limits<double>::infinity();
    TaskKey key;
    uint64_t seq = 0;
  };

  /// Heap order: claim tokens first, then (priority, deadline, TaskKey,
  /// insertion seq) — a strict weak ordering with no ties, so the drain
  /// order is deterministic. priority_queue pops its largest element, so
  /// operator() returns true when `a` is LESS urgent than `b`.
  struct LessUrgent {
    bool operator()(const ReadyItem& a, const ReadyItem& b) const;
  };

  void PushNodeReadyLocked(TaskId id);
  /// Wakes sleepers for `pushed` newly-ready items: nothing when nobody
  /// sleeps, one signal for one item, a broadcast for a burst — never one
  /// signal per item. Caller holds mutex_.
  void WakeForReadyLocked(size_t pushed);
  /// Pops ready items in heap order until the graph finishes, sleeping on
  /// cv_ready_ while the heap is empty; processes each item unlocked.
  void DrainUntilFinished();
  /// Runs a popped claim token's children, or admits and executes a
  /// popped node, then any node its completion handed to this thread.
  void ProcessItem(const ReadyItem& item);
  /// Endpoint gate bookkeeping for a popped node. False when the node
  /// parked behind its endpoint's in-flight nodes.
  /// Caller holds mutex_.
  bool AdmitNodeLocked(TaskId id);
  /// Runs `node` (resolved under mutex_ by the caller, which no longer
  /// holds it), through its endpoint's IssueAsync when it holds the gate.
  void ExecuteNode(TaskId id, Node* node);
  void OnNodeDone(TaskId id, const Status& status, double seconds);
  void DrainBatch(ChildBatch* batch);
  /// Per-endpoint admission: at most `endpoint->max_concurrent_calls()`
  /// nodes per endpoint execute (or sit on its dispatch thread) at a
  /// time — one for mutex-serialized endpoints, where admitting more
  /// would only park pool workers on that mutex. Returns false (and
  /// parks the node) when the endpoint is at capacity; a busy node's
  /// completion promotes the most urgent parked node.
  bool TryAdmitEndpointNode(TaskId id, ProviderEndpoint* endpoint);
  /// Hands `endpoint`'s admission slot to its most urgent parked node,
  /// returned holding the gate for the caller to run or queue, or shrinks
  /// the in-flight count and returns kNoTask. The caller holds mutex_ and
  /// has already cleared the releasing node's holds_gate.
  TaskId ReleaseEndpointGateLocked(ProviderEndpoint* endpoint);
  /// True when the ready heap's top is a claim token or has a higher
  /// priority or an earlier deadline than node `id`. Caller holds mutex_.
  bool ReadyOutranksLocked(TaskId id) const;
  /// True when parked node `a` outranks parked node `b` (same order as
  /// the ready heap, with TaskId as the insertion-order tie-break).
  bool MoreUrgentNode(TaskId a, TaskId b) const;

  ThreadPool* pool_;

  /// Guards nodes_, the ready heap, endpoint gates, and the lifecycle
  /// flags.
  mutable std::mutex mutex_;
  /// Signalled when ready items appear or the graph finishes; waited on
  /// by idle drainers only.
  std::condition_variable cv_ready_;
  /// Signalled on child-batch completion and helper exit; waited on by
  /// FanOut parents and Run. Split from cv_ready_ so a single targeted
  /// ready signal can never be swallowed by a parent's predicate check.
  std::condition_variable cv_done_;
  /// deque: node addresses stay stable across Add while bodies run.
  std::deque<Node> nodes_;
  /// Every ready node and claim token, in strict LessUrgent order.
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, LessUrgent> ready_;
  uint64_t ready_seq_ = 0;
  /// Idle drainers currently in (or entering) cv_ready_ wait.
  size_t idle_count_ = 0;
  /// Nodes parked behind endpoint gates now, and their high-water mark
  /// (folded into the `scheduler.parked_peak` gauge after Run).
  size_t parked_count_ = 0;
  size_t parked_peak_ = 0;

  /// Per-endpoint admission gate: nodes in flight and nodes parked
  /// waiting for a slot.
  struct EndpointGate {
    size_t in_flight = 0;
    std::vector<TaskId> parked;
  };
  std::map<ProviderEndpoint*, EndpointGate> endpoint_gates_;
  size_t pending_ = 0;
  bool running_ = false;
  bool finished_ = false;
  size_t live_helpers_ = 0;
};

}  // namespace fedaqp

#endif  // FEDAQP_EXEC_TASK_GRAPH_H_
