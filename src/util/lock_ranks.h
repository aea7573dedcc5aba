#pragma once

// The global lock hierarchy: one rank constant per named mutex in the tree.
//
// Ranks encode the only order in which locks may be nested: a thread may
// acquire a mutex only while every lock it already holds has a *strictly
// smaller* rank. The table is the single source of truth shared by three
// enforcement layers, which cross-check each other:
//
//   1. metrolint v2 `lockorder` (tools/metrolint/) proves the whole-program
//      acquired-while-holding graph respects these ranks statically, and
//      verifies that every `Mutex f{lockrank::kX, "name"}` declaration
//      matches the [locks] table in tools/metrolint/metrolint.toml.
//   2. The debug runtime checker in util/sync.h keeps a thread-local stack
//      of held locks and aborts (printing both stacks) on an inversion the
//      static pass could not see (data-dependent call paths, function
//      pointers).
//   3. Clang thread-safety annotations (METRO_ACQUIRED_BEFORE/AFTER) cover
//      the per-class relations.
//
// Numbering leaves gaps so a new lock slots between neighbors without
// renumbering; the full module -> name -> rank table lives in DESIGN.md
// ("Global lock hierarchy"). Rank 0 is reserved for unranked mutexes
// (tests, scratch locks): the runtime checker skips them.

namespace metro::lockrank {

// core — alerting and the web-facing pipeline snapshot.
inline constexpr int kCoreAlerts = 10;       // AlertManager::mu_
inline constexpr int kCorePipelineWeb = 12;  // CityPipeline::web_mu_

// resilience — health registry and circuit breakers.
inline constexpr int kResilienceHealth = 20;   // HealthRegistry::mu_
inline constexpr int kResilienceBreaker = 22;  // CircuitBreaker::mu_

// mq — broker control plane, per-partition data plane, consumer groups,
// and the per-topic consumer wake-up (a leaf: never held with another lock).
inline constexpr int kMqCluster = 30;    // BrokerCluster::mu_
inline constexpr int kMqPartition = 31;  // BrokerCluster::Partition::partition_mu
inline constexpr int kMqGroups = 34;     // GroupCoordinator::mu_
inline constexpr int kMqDoorbell = 36;   // Doorbell::mu_

// store — wide-column, document, and LSM engines. Writer-side locks rank
// before the brief version/map pin locks so a writer may publish a new
// version (or region map) while still holding its write lock; the block
// cache shards rank last because both read and write paths touch them.
inline constexpr int kStoreWideColumn = 40;     // WideColumnTable::mu_
inline constexpr int kStoreWideColumnMap = 41;  // WideColumnTable::map_mu_
inline constexpr int kStoreDocs = 42;           // Collection::mu_
inline constexpr int kStoreLsmWrite = 43;       // LsmEngine::write_mu_
inline constexpr int kStoreLsmVersion = 44;     // LsmEngine::version_mu_
inline constexpr int kStoreBlockCache = 46;     // BlockCache::Shard::cache_mu

// dfs / sched — cluster state above per-node state, scheduler above both.
inline constexpr int kDfsCluster = 50;   // Cluster::mu_
inline constexpr int kDfsDataNode = 52;  // DataNode::mu_
inline constexpr int kSchedRm = 56;      // ResourceManager::mu_

// dataflow / graph — leaf-ish compute-side locks.
inline constexpr int kDataflowDataset = 60;  // Dataset::Node::mu
inline constexpr int kGraphOutbox = 66;      // pregel outbox_mu[] stripes

// obs — trace collection.
inline constexpr int kObsTrace = 70;  // SpanCollector::mu_

// util — leaf primitives: anything may hold a higher-level lock while
// touching these, so they rank above (are acquired after) everything else.
inline constexpr int kUtilQueue = 80;            // BoundedQueue::mu_
inline constexpr int kUtilMetricsRegistry = 90;  // MetricsRegistry::mu_
inline constexpr int kUtilLogging = 98;          // logging OutputMutex()

}  // namespace metro::lockrank
