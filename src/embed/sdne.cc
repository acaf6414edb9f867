#include "embed/sdne.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/losses.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Sdne::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix a_norm = graph.Adjacency(true).RowNormalizedL1();

  // Two-layer encoder over neighbourhood vectors.
  auto w1 =
      ag::MakeParameter(Matrix::GlorotUniform(n, opt.hidden_dim, rng));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));

  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer({w1, w2}, adam);

  // Second-order loss via inner-product reconstruction with beta-weighted
  // positives: each observed link appears beta times as strongly as a
  // sampled non-link (SDNE's B-matrix weighting, in pair-sampled form).
  std::vector<ag::PairTarget> positive_pairs, negative_pairs;
  for (const ag::PairTarget& pt :
       SampleReconstructionPairs(a_norm, opt.negatives_per_node, rng,
                                 /*binarize=*/true))
    (pt.target > 0.0 ? positive_pairs : negative_pairs).push_back(pt);
  const auto positives = ag::PairSet::Build(std::move(positive_pairs), n);
  const auto negatives = ag::PairSet::Build(std::move(negative_pairs), n);

  // First-order pairs: the graph's edges.
  std::vector<int> edge_u, edge_v;
  edge_u.reserve(graph.num_edges());
  edge_v.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) {
    edge_u.push_back(e.u);
    edge_v.push_back(e.v);
  }

  Matrix final_h;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h = ag::MatMul(ag::LeakyRelu(ag::SpMM(&a_norm, w1), 0.01), w2);

    // L2nd: positives repeated with weight beta via Scale on a separate
    // positive-only loss (equivalent to the B weighting).
    VarPtr l2nd =
        ag::Add(ag::Scale(ag::InnerProductPairBce(h, positives), opt.beta),
                ag::InnerProductPairBce(h, negatives));

    // L1st: sum over edges of ||h_u - h_v||^2.
    VarPtr l1st;
    if (!edge_u.empty()) {
      VarPtr diff =
          ag::Sub(ag::SelectRows(h, edge_u), ag::SelectRows(h, edge_v));
      l1st = ag::Scale(ag::SumSquares(diff), opt.alpha);
    }

    VarPtr loss = l1st ? ag::Add(l2nd, l1st) : l2nd;
    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));
    if (epoch == opt.epochs - 1) final_h = h->value();
  }
  return final_h;
}

}  // namespace aneci
