#include "embed/dgi.h"

#include <numeric>

#include "autograd/ops.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Dgi::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  const SparseMatrix x_sparse = graph.Features();

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), opt.dim, rng));
  auto w_disc = ag::MakeParameter(
      Matrix::GlorotUniform(opt.dim, opt.dim, rng));

  // The corrupted features must outlive the loop's Backward.
  SparseMatrix x_corrupt;
  VarPtr h;
  TrainLoop({w1, w_disc}, LoopOptions(opt, eo)).RunOrDie([&](int) {
    // Corruption: shuffle feature rows, keep the topology.
    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.NextInt(i + 1)]);
    x_corrupt = x_sparse.SelectRows(perm);

    // Encoder on the real and corrupted graphs.
    h = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    VarPtr h_neg = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_corrupt, w1)));

    // Readout: sigmoid of the mean patch representation.
    VarPtr summary = ag::Sigmoid(ag::MeanRows(h));  // (1 x dim).

    // Bilinear discriminator: score_i = h_i W s^T.
    VarPtr ws = ag::MatMulTransB(w_disc, summary);   // (dim x 1).
    VarPtr pos_scores = ag::MatMul(h, ws);           // (n x 1).
    VarPtr neg_scores = ag::MatMul(h_neg, ws);

    // BCE with target 1 for real patches and 0 for corrupted ones, as a sum
    // of the two halves.
    Matrix ones(n, 1, 1.0), zeros(n, 1, 0.0);
    VarPtr loss =
        ag::Add(ag::BinaryCrossEntropySum(ag::Sigmoid(pos_scores), ones),
                ag::BinaryCrossEntropySum(ag::Sigmoid(neg_scores), zeros));
    return ag::Scale(loss, 1.0 / (2.0 * n));
  });
  return h->value();
}

}  // namespace aneci
