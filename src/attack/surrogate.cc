#include "attack/surrogate.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "util/check.h"
#include "util/trace.h"

namespace aneci {

void SurrogateModel::Fit(const Graph& graph, const Dataset& dataset,
                         Rng& rng) {
  TraceSpan span("attack/surrogate");
  const Matrix features = graph.FeaturesOrIdentity();
  const int k = dataset.graph.num_classes();
  ANECI_CHECK_GT(k, 1);

  // Propagated features F = S~^2 X, fixed during W's training.
  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  Matrix f = s_norm.Multiply(s_norm.Multiply(features));

  std::vector<int> train_labels;
  for (int i : dataset.train_idx)
    train_labels.push_back(dataset.graph.labels()[i]);

  auto w = ag::MakeParameter(Matrix::GlorotUniform(features.cols(), k, rng));
  auto f_const = ag::MakeConstant(std::move(f));
  TrainLoop loop({w}, {.epochs = options_.epochs,
                       .adam = {.lr = options_.lr,
                                .weight_decay = options_.weight_decay},
                       .rng = &rng});
  loop.RunOrDie([&](int) {
    return ag::SoftmaxCrossEntropy(ag::MatMul(f_const, w), dataset.train_idx,
                                   train_labels);
  });
  weights_ = w->value();
  projected_ = MatMul(features, weights_);
}

Matrix SurrogateModel::Logits(const Graph& graph) const {
  ANECI_CHECK(!projected_.empty());
  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  return s_norm.Multiply(s_norm.Multiply(projected_));
}

std::vector<double> SurrogateModel::LogitsForNode(const Graph& graph,
                                                  int node) const {
  ANECI_CHECK(!projected_.empty());
  const int k = projected_.cols();
  // z_t = sum_{j in N(t) + t} s_tj * u_j, u_j = sum_{m in N(j) + j} s_jm R_m,
  // with s_ab = 1 / sqrt((d_a + 1)(d_b + 1)) including self-loops.
  auto inv_sqrt_deg = [&](int v) {
    return 1.0 / std::sqrt(static_cast<double>(graph.Degree(v)) + 1.0);
  };
  auto u_row = [&](int j, double* out) {
    std::fill(out, out + k, 0.0);
    const double sj = inv_sqrt_deg(j);
    auto add = [&](int m) {
      const double w = sj * inv_sqrt_deg(m);
      const double* r = projected_.RowPtr(m);
      for (int c = 0; c < k; ++c) out[c] += w * r[c];
    };
    add(j);
    for (int m : graph.Neighbors(j)) add(m);
  };

  std::vector<double> z(k, 0.0), u(k);
  const double st = inv_sqrt_deg(node);
  auto accumulate = [&](int j) {
    u_row(j, u.data());
    const double w = st * inv_sqrt_deg(j);
    for (int c = 0; c < k; ++c) z[c] += w * u[c];
  };
  accumulate(node);
  for (int j : graph.Neighbors(node)) accumulate(j);
  return z;
}

std::vector<double> SurrogateEdgeGradient(const SurrogateModel& model,
                                          const Graph& graph, int target,
                                          int label) {
  const Matrix& r = model.projected();
  ANECI_CHECK(!r.empty());
  const int n = graph.num_nodes();
  const int k = r.cols();
  const SparseMatrix s_norm = graph.NormalizedAdjacency();

  // Target logits and loss gradient g = softmax(z_t) - onehot(label).
  Matrix u = s_norm.Multiply(r);
  std::vector<double> z(k, 0.0);
  for (int64_t e = s_norm.row_ptr()[target]; e < s_norm.row_ptr()[target + 1];
       ++e) {
    const double w = s_norm.values()[e];
    const double* urow = u.RowPtr(s_norm.col_idx()[e]);
    for (int c = 0; c < k; ++c) z[c] += w * urow[c];
  }
  double mx = z[0];
  for (int c = 1; c < k; ++c) mx = std::max(mx, z[c]);
  double sum = 0.0;
  std::vector<double> g(k);
  for (int c = 0; c < k; ++c) {
    g[c] = std::exp(z[c] - mx);
    sum += g[c];
  }
  for (int c = 0; c < k; ++c) g[c] = g[c] / sum - (c == label ? 1.0 : 0.0);

  // Gvec_j = g . R_j; sg = S~ Gvec.
  std::vector<double> gvec(n, 0.0);
  for (int j = 0; j < n; ++j) {
    const double* rrow = r.RowPtr(j);
    for (int c = 0; c < k; ++c) gvec[j] += g[c] * rrow[c];
  }
  std::vector<double> sg(n, 0.0);
  for (int a = 0; a < n; ++a) {
    for (int64_t e = s_norm.row_ptr()[a]; e < s_norm.row_ptr()[a + 1]; ++e) {
      sg[a] += s_norm.values()[e] * gvec[s_norm.col_idx()[e]];
    }
  }

  const double dt = graph.Degree(target) + 1.0;
  const double s_tt = 1.0 / dt;
  std::vector<double> grad(n, 0.0);
  for (int v = 0; v < n; ++v) {
    if (v == target) continue;
    const double dv = graph.Degree(v) + 1.0;
    const double s_tv =
        graph.HasEdge(target, v) ? 1.0 / std::sqrt(dt * dv) : 0.0;
    grad[v] =
        (sg[v] + s_tt * gvec[v] + s_tv * gvec[target]) / std::sqrt(dt * dv);
  }
  return grad;
}

std::vector<int> SelectAttackTargets(const Dataset& dataset, int min_targets,
                                     int max_targets, Rng& rng) {
  const Graph& graph = dataset.graph;
  std::vector<int> qualified;
  for (int i : dataset.test_idx)
    if (graph.Degree(i) > 10) qualified.push_back(i);

  if (static_cast<int>(qualified.size()) < min_targets) {
    // Fall back to the highest-degree test nodes.
    std::vector<int> pool = dataset.test_idx;
    std::sort(pool.begin(), pool.end(), [&](int a, int b) {
      return graph.Degree(a) > graph.Degree(b);
    });
    qualified.assign(pool.begin(),
                     pool.begin() + std::min<size_t>(pool.size(), min_targets));
  }
  // Shuffle and cap.
  for (int i = static_cast<int>(qualified.size()) - 1; i > 0; --i)
    std::swap(qualified[i], qualified[rng.NextInt(i + 1)]);
  if (static_cast<int>(qualified.size()) > max_targets)
    qualified.resize(max_targets);
  return qualified;
}

}  // namespace aneci
