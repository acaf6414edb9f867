// Attributed network container (Definition 1): undirected simple graph with
// optional per-node attribute vectors (CSR) and class labels, stored as a
// sorted edge set plus derived CSR adjacency.
#ifndef ANECI_GRAPH_GRAPH_H_
#define ANECI_GRAPH_GRAPH_H_

#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace aneci {

/// Undirected edge, stored with u <= v.
struct Edge {
  int u;
  int v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// An attributed network G = (V, E, X) with optional labels y.
/// Self-loops are not stored as edges; adjacency builders add them on demand
/// (Definition 2 adds self-connections for the GCN propagation).
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes) : num_nodes_(num_nodes) {}

  /// Builds from an edge list; duplicates and self-loops are dropped.
  static Graph FromEdges(int num_nodes, const std::vector<Edge>& edges);

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const std::vector<Edge>& edges() const { return edges_; }

  bool HasEdge(int u, int v) const;

  /// Adds edge (u, v) if absent; returns true if added.
  bool AddEdge(int u, int v);

  /// Removes edge (u, v) if present; returns true if removed.
  bool RemoveEdge(int u, int v);

  /// Neighbors of u (sorted).
  const std::vector<int>& Neighbors(int u) const;

  int Degree(int u) const { return static_cast<int>(Neighbors(u).size()); }

  // --- Attributes & labels --------------------------------------------------

  bool has_attributes() const { return num_nodes_ > 0 && attribute_dim() > 0; }
  /// X as an N x d CSR. Cell edits go through a dense copy and FromDense.
  const SparseMatrix& attributes() const { return attributes_; }
  void SetAttributes(SparseMatrix x);

  /// Attribute dimensionality d, or 0 if absent.
  int attribute_dim() const { return attributes_.cols(); }

  bool has_labels() const { return !labels_.empty(); }
  const std::vector<int>& labels() const { return labels_; }
  void SetLabels(std::vector<int> labels);
  int num_classes() const;

  // --- Matrix views ----------------------------------------------------------

  /// Adjacency A (0/1, symmetric), optionally with unit self-loops.
  SparseMatrix Adjacency(bool add_self_loops = false) const;

  /// GCN propagation operator D^{-1/2} (A + I) D^{-1/2} (Eq. 2).
  SparseMatrix NormalizedAdjacency() const;

  /// The encoders' feature operator: X, or else the sparse identity (Polblogs:
  /// "use the unit matrix instead"). Equals FromDense(FeaturesOrIdentity()).
  SparseMatrix Features() const;

  /// Dense Features(), for code that needs dense cells.
  Matrix FeaturesOrIdentity() const;

 private:
  void InvalidateAdjacency();
  void EnsureAdjacency() const;

  int num_nodes_ = 0;
  std::vector<Edge> edges_;  // Sorted, unique, u < v.
  SparseMatrix attributes_;
  std::vector<int> labels_;

  // Neighbor lists derived lazily from edges_.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::vector<int>> neighbors_;
};

}  // namespace aneci

#endif  // ANECI_GRAPH_GRAPH_H_
