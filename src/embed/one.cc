#include "embed/one.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace aneci {
namespace {

// One weighted squared-loss SGD step on u_i . v_j ~= target.
inline double FactorStep(double* u, double* v, int dim, double target,
                         double weight, double lr) {
  double pred = 0.0;
  for (int c = 0; c < dim; ++c) pred += u[c] * v[c];
  const double residual = target - pred;
  const double g = lr * weight * residual;
  for (int c = 0; c < dim; ++c) {
    const double uc = u[c];
    u[c] += g * v[c];
    v[c] += g * uc;
  }
  return residual * residual;
}

}  // namespace

Matrix One::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  Options opt = WithOverrides(options_, eo);
  // `epochs` counts gradient passes elsewhere; one round here runs
  // inner_steps passes over every edge and attribute, so scale it down.
  if (eo.epochs > 0) opt.rounds = std::clamp(eo.epochs / 8, 4, 30);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);
  const int dim = opt.dim;
  const Matrix features = graph.FeaturesOrIdentity();
  const int f = features.cols();

  // Shared node factor U; structure context V_s; attribute loadings V_a.
  Matrix u = Matrix::RandomUniform(n, dim, 0.5 / dim, rng);
  Matrix vs = Matrix::RandomUniform(n, dim, 0.5 / dim, rng);
  Matrix va = Matrix::RandomUniform(f, dim, 0.5 / dim, rng);

  // Non-zero attribute entries, gathered once.
  std::vector<std::pair<int, int>> attr_entries;
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < f; ++c)
      if (features(i, c) != 0.0) attr_entries.push_back({i, c});

  std::vector<double> weights(n, 1.0);   // log(1/o_i), normalised to mean 1.
  std::vector<double> res_struct(n, 0.0), res_attr(n, 0.0);

  for (int round = 0; round < opt.rounds; ++round) {
    std::fill(res_struct.begin(), res_struct.end(), 0.0);
    std::fill(res_attr.begin(), res_attr.end(), 0.0);
    for (int step = 0; step < opt.inner_steps; ++step) {
      // Structure pass: observed edges as 1, sampled non-edges as 0.
      for (const Edge& e : graph.edges()) {
        res_struct[e.u] += FactorStep(u.RowPtr(e.u), vs.RowPtr(e.v), dim, 1.0,
                                      weights[e.u], opt.lr);
        res_struct[e.v] += FactorStep(u.RowPtr(e.v), vs.RowPtr(e.u), dim, 1.0,
                                      weights[e.v], opt.lr);
      }
      for (int i = 0; i < n; ++i) {
        const int j = static_cast<int>(rng.NextInt(n));
        if (j == i || graph.HasEdge(i, j)) continue;
        res_struct[i] += FactorStep(u.RowPtr(i), vs.RowPtr(j), dim, 0.0,
                                    weights[i], opt.lr);
      }
      // Attribute pass.
      for (const auto& [i, c] : attr_entries) {
        res_attr[i] += opt.attr_weight *
                       FactorStep(u.RowPtr(i), va.RowPtr(c), dim,
                                  features(i, c), weights[i], opt.lr);
      }
      for (int i = 0; i < n; ++i) {
        const int c = static_cast<int>(rng.NextInt(f));
        if (features(i, c) != 0.0) continue;
        res_attr[i] += opt.attr_weight *
                       FactorStep(u.RowPtr(i), va.RowPtr(c), dim, 0.0,
                                  weights[i], opt.lr);
      }
    }

    // Outlier re-estimation: o_i = residual share; w_i = log(1/o_i),
    // rescaled to mean 1 (ONE's multiplicative update, simplified).
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += res_struct[i] + res_attr[i];
    if (eo.observer != nullptr) eo.observer->OnEpoch(round, total / n);
    if (total > 0.0) {
      double mean_w = 0.0;
      for (int i = 0; i < n; ++i) {
        const double o =
            std::max((res_struct[i] + res_attr[i]) / total, 1e-9);
        weights[i] = std::log(1.0 / o);
        mean_w += weights[i];
      }
      mean_w /= n;
      for (double& w : weights) w = std::max(w / mean_w, 0.05);
    }
  }

  return u;
}

}  // namespace aneci
