// Per-node reconstruction errors shared by the dual-decoder anomaly scorers
// (Dominant, AnomalyDAE, DONE/ADONE). Serial, so scores do not depend on the
// thread count.
#ifndef ANECI_EMBED_DECODER_ERRORS_H_
#define ANECI_EMBED_DECODER_ERRORS_H_

#include <vector>

#include "autograd/ops.h"

namespace aneci {

struct DecoderErrors {
  /// Mean (sigmoid(z_u . z_v) - target)^2 over the pairs touching each node.
  std::vector<double> structure;
  /// ||xhat_i - x_i||^2.
  std::vector<double> attribute;
};

DecoderErrors ComputeDecoderErrors(const Matrix& z,
                                   const std::vector<ag::PairTarget>& pairs,
                                   const Matrix& xhat, const Matrix& x);

/// alpha * structure / max + (1 - alpha) * attribute / max (max >= 1e-12).
std::vector<double> MixDecoderErrors(const DecoderErrors& err, double alpha);

}  // namespace aneci

#endif  // ANECI_EMBED_DECODER_ERRORS_H_
