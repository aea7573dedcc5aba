#pragma once

// Vertex-centric graph processing (the GraphX/GraphMap role the paper
// cites for Sec. II-C2's "graph-based processing" workloads).
//
// A Pregel-style engine: computation proceeds in synchronous supersteps;
// each active vertex receives the messages sent to it in the previous
// superstep, updates its value, and sends messages along its out-edges.
// Vertices vote to halt; the run ends when no vertex is active and no
// messages are in flight. Supersteps execute vertices in parallel on a
// thread pool. PageRank and connected components ship as built-in programs.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/lock_ranks.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace metro::graph {

/// Vertex identifier in a PregelGraph.
using VertexId = std::uint32_t;

/// Directed graph with per-edge weights (use both directions for
/// undirected semantics).
class PregelGraph {
 public:
  /// Adds `count` vertices; ids are dense, starting at 0.
  void AddVertices(std::size_t count);

  Status AddEdge(VertexId from, VertexId to, double weight = 1.0);

  std::size_t num_vertices() const { return out_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  struct Edge {
    VertexId to;
    double weight;
  };
  const std::vector<Edge>& OutEdges(VertexId v) const { return out_[v]; }
  std::size_t OutDegree(VertexId v) const { return out_[v].size(); }

 private:
  std::vector<std::vector<Edge>> out_;
  std::size_t num_edges_ = 0;
};

/// One vertex's view during a superstep.
template <typename Value, typename Message>
struct VertexContext {
  VertexId id;
  int superstep;
  Value* value;                          ///< mutable vertex state
  const std::vector<Message>* messages;  ///< inbox from last superstep
  const PregelGraph* graph;

  // Outbox handling is provided by the engine:
  std::function<void(VertexId, Message)> send;
  std::function<void()> vote_to_halt;
};

/// Runs a vertex program to convergence (or `max_supersteps`).
///
/// `program` is invoked once per active vertex per superstep. A halted
/// vertex reactivates when it receives a message. Returns the number of
/// supersteps executed.
template <typename Value, typename Message>
int RunPregel(
    const PregelGraph& graph, std::vector<Value>& values,
    const std::function<void(VertexContext<Value, Message>&)>& program,
    ThreadPool& pool, int max_supersteps = 50) {
  const std::size_t n = graph.num_vertices();
  std::vector<std::vector<Message>> inbox(n), outbox(n);
  // One stripe lock per destination vertex; sends from racing workers
  // append under the target's lock. (A std::vector of mutexes is fine here:
  // never resized while workers run.)
  std::vector<Mutex> outbox_mu(n);
  for (Mutex& mu : outbox_mu) {
    mu.SetRank(lockrank::kGraphOutbox, "graph.outbox");
  }
  std::vector<char> active(n, 1);

  int superstep = 0;
  for (; superstep < max_supersteps; ++superstep) {
    // A vertex runs if it is active or has mail.
    std::vector<VertexId> runnable;
    for (std::size_t v = 0; v < n; ++v) {
      if (active[v] || !inbox[v].empty()) runnable.push_back(VertexId(v));
    }
    if (runnable.empty()) break;

    // Parallel superstep: chunk the runnable set across the pool.
    const std::size_t chunks =
        std::min<std::size_t>(pool.num_threads() * 2, runnable.size());
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      futures.push_back(pool.Async([&, c] {
        for (std::size_t i = c; i < runnable.size(); i += chunks) {
          const VertexId v = runnable[i];
          active[v] = 1;
          bool halted = false;
          VertexContext<Value, Message> ctx;
          ctx.id = v;
          ctx.superstep = superstep;
          ctx.value = &values[v];
          ctx.messages = &inbox[v];
          ctx.graph = &graph;
          ctx.send = [&outbox, &outbox_mu](VertexId to, Message msg) {
            MutexLock lock(outbox_mu[to]);
            outbox[to].push_back(std::move(msg));
          };
          ctx.vote_to_halt = [&halted] { halted = true; };
          program(ctx);
          if (halted) active[v] = 0;
        }
      }));
    }
    for (auto& f : futures) f.get();

    // Deliver mail (barrier).
    for (std::size_t v = 0; v < n; ++v) {
      inbox[v] = std::move(outbox[v]);
      outbox[v].clear();
    }
  }
  return superstep;
}

/// PageRank with damping 0.85; returns per-vertex ranks summing ~1.
std::vector<double> PageRank(const PregelGraph& graph, ThreadPool& pool,
                             int iterations = 20, double damping = 0.85);

/// Connected components over the *undirected* view (edges must be present
/// in both directions); returns the minimum vertex id of each component.
std::vector<VertexId> ConnectedComponents(const PregelGraph& graph,
                                          ThreadPool& pool);

/// Single-source shortest paths over edge weights (+inf when unreachable).
std::vector<double> ShortestPaths(const PregelGraph& graph, VertexId source,
                                  ThreadPool& pool);

}  // namespace metro::graph
