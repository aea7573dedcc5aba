#include "graph/pregel.h"

#include <algorithm>
#include <limits>

namespace metro::graph {

void PregelGraph::AddVertices(std::size_t count) {
  out_.resize(out_.size() + count);
}

Status PregelGraph::AddEdge(VertexId from, VertexId to, double weight) {
  if (from >= out_.size() || to >= out_.size()) {
    return InvalidArgumentError("edge endpoint out of range");
  }
  out_[from].push_back(Edge{to, weight});
  ++num_edges_;
  return Status::Ok();
}

std::vector<double> PageRank(const PregelGraph& graph, ThreadPool& pool,
                             int iterations, double damping) {
  const std::size_t n = graph.num_vertices();
  std::vector<double> ranks(n, n == 0 ? 0.0 : 1.0 / double(n));
  if (n == 0) return ranks;
  const double base = (1.0 - damping) / double(n);

  const auto program = [&](VertexContext<double, double>& ctx) {
    if (ctx.superstep > 0) {
      double sum = 0;
      for (const double m : *ctx.messages) sum += m;
      *ctx.value = base + damping * sum;
    }
    if (ctx.superstep < iterations) {
      const auto& edges = ctx.graph->OutEdges(ctx.id);
      if (!edges.empty()) {
        const double share = *ctx.value / double(edges.size());
        for (const auto& edge : edges) ctx.send(edge.to, share);
      }
    } else {
      ctx.vote_to_halt();
    }
  };
  RunPregel<double, double>(graph, ranks, program, pool, iterations + 1);
  return ranks;
}

std::vector<VertexId> ConnectedComponents(const PregelGraph& graph,
                                          ThreadPool& pool) {
  const std::size_t n = graph.num_vertices();
  std::vector<VertexId> labels(n);
  for (std::size_t v = 0; v < n; ++v) labels[v] = VertexId(v);

  const auto program = [](VertexContext<VertexId, VertexId>& ctx) {
    VertexId lowest = *ctx.value;
    for (const VertexId m : *ctx.messages) lowest = std::min(lowest, m);
    const bool changed = lowest < *ctx.value;
    const bool first = ctx.superstep == 0;
    *ctx.value = lowest;
    if (first || changed) {
      for (const auto& edge : ctx.graph->OutEdges(ctx.id)) {
        ctx.send(edge.to, lowest);
      }
    }
    ctx.vote_to_halt();
  };
  RunPregel<VertexId, VertexId>(graph, labels, program, pool,
                                int(n) + 2);
  return labels;
}

std::vector<double> ShortestPaths(const PregelGraph& graph, VertexId source,
                                  ThreadPool& pool) {
  const std::size_t n = graph.num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  if (source < n) dist[source] = 0.0;

  const auto program = [source](VertexContext<double, double>& ctx) {
    double best = *ctx.value;
    for (const double m : *ctx.messages) best = std::min(best, m);
    const bool improved = best < *ctx.value;
    *ctx.value = best;
    if ((ctx.superstep == 0 && ctx.id == source) || improved) {
      for (const auto& edge : ctx.graph->OutEdges(ctx.id)) {
        ctx.send(edge.to, best + edge.weight);
      }
    }
    ctx.vote_to_halt();
  };
  RunPregel<double, double>(graph, dist, program, pool, int(n) + 2);
  return dist;
}

}  // namespace metro::graph
