#include "broker/topology.h"

#include <algorithm>
#include <stdexcept>

namespace subcover {

topology::topology(int n, std::vector<std::pair<int, int>> edges) {
  if (n < 1) throw std::invalid_argument("topology: need at least one broker");
  if (static_cast<int>(edges.size()) != n - 1)
    throw std::invalid_argument("topology: a tree on " + std::to_string(n) + " nodes needs " +
                                std::to_string(n - 1) + " edges");
  adj_.resize(static_cast<std::size_t>(n));
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= n || b < 0 || b >= n || a == b)
      throw std::invalid_argument("topology: bad edge (" + std::to_string(a) + ", " +
                                  std::to_string(b) + ")");
    adj_[static_cast<std::size_t>(a)].push_back(b);
    adj_[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
  // n-1 edges + connected => tree. Check connectivity by DFS from 0.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<int> stack{0};
  seen[0] = true;
  int visited = 0;
  while (!stack.empty()) {
    const int cur = stack.back();
    stack.pop_back();
    ++visited;
    for (const int nb : adj_[static_cast<std::size_t>(cur)]) {
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = true;
        stack.push_back(nb);
      }
    }
  }
  if (visited != n) throw std::invalid_argument("topology: graph is not connected");
}

topology topology::line(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return {n, std::move(edges)};
}

topology topology::star(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
  return {n, std::move(edges)};
}

topology topology::balanced_tree(int fanout, int depth) {
  if (fanout < 1 || depth < 0)
    throw std::invalid_argument("topology::balanced_tree: bad parameters");
  std::vector<std::pair<int, int>> edges;
  int n = 1;
  int level_start = 0;
  int level_size = 1;
  for (int d = 0; d < depth; ++d) {
    const int next_start = level_start + level_size;
    for (int p = 0; p < level_size; ++p) {
      for (int c = 0; c < fanout; ++c) {
        edges.emplace_back(level_start + p, n);
        ++n;
      }
    }
    level_start = next_start;
    level_size *= fanout;
  }
  return {n, std::move(edges)};
}

const std::vector<int>& topology::neighbors(int node) const {
  if (node < 0 || node >= size()) throw std::invalid_argument("topology: bad broker id");
  return adj_[static_cast<std::size_t>(node)];
}

std::vector<int> topology::path(int from, int to) const {
  if (from < 0 || from >= size() || to < 0 || to >= size())
    throw std::invalid_argument("topology::path: bad broker id");
  // DFS with parent tracking (trees are small; simplicity over speed).
  std::vector<int> parent(static_cast<std::size_t>(size()), -1);
  std::vector<int> stack{from};
  std::vector<bool> seen(static_cast<std::size_t>(size()), false);
  seen[static_cast<std::size_t>(from)] = true;
  while (!stack.empty()) {
    const int cur = stack.back();
    stack.pop_back();
    if (cur == to) break;
    for (const int nb : adj_[static_cast<std::size_t>(cur)]) {
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = true;
        parent[static_cast<std::size_t>(nb)] = cur;
        stack.push_back(nb);
      }
    }
  }
  std::vector<int> path;
  for (int cur = to; cur != -1; cur = parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string topology::to_string() const {
  std::string s = "topology(" + std::to_string(size()) + " brokers:";
  for (int i = 0; i < size(); ++i) {
    for (const int nb : neighbors(i)) {
      if (i < nb) {
        s += " ";
        s += std::to_string(i);
        s += "-";
        s += std::to_string(nb);
      }
    }
  }
  return s + ")";
}

}  // namespace subcover
