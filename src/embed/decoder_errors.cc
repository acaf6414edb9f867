#include "embed/decoder_errors.h"

#include <algorithm>
#include <cmath>

namespace aneci {

DecoderErrors ComputeDecoderErrors(const Matrix& z,
                                   const std::vector<ag::PairTarget>& pairs,
                                   const Matrix& xhat, const Matrix& x) {
  const int n = z.rows();
  DecoderErrors err{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  std::vector<int> count(n, 0);
  for (const ag::PairTarget& pt : pairs) {
    double d = 0.0;
    const double* a = z.RowPtr(pt.u);
    const double* b = z.RowPtr(pt.v);
    for (int c = 0; c < z.cols(); ++c) d += a[c] * b[c];
    const double s = 1.0 / (1.0 + std::exp(-d));
    const double r = (s - pt.target) * (s - pt.target);
    err.structure[pt.u] += r;
    err.structure[pt.v] += r;
    ++count[pt.u];
    ++count[pt.v];
  }
  for (int i = 0; i < n; ++i) {
    if (count[i] > 0) err.structure[i] /= count[i];
    const double* p = xhat.RowPtr(i);
    const double* t = x.RowPtr(i);
    for (int c = 0; c < x.cols(); ++c) {
      const double d = p[c] - t[c];
      err.attribute[i] += d * d;
    }
  }
  return err;
}

std::vector<double> MixDecoderErrors(const DecoderErrors& err, double alpha) {
  std::vector<double> scores(err.structure.size());
  double max_s = 1e-12, max_a = 1e-12;
  for (size_t i = 0; i < scores.size(); ++i) {
    max_s = std::max(max_s, err.structure[i]);
    max_a = std::max(max_a, err.attribute[i]);
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = alpha * err.structure[i] / max_s +
                (1.0 - alpha) * err.attribute[i] / max_a;
  }
  return scores;
}

}  // namespace aneci
