#include "embed/sdne.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Sdne::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix a_norm = graph.Adjacency(true).RowNormalizedL1();

  // Two-layer encoder over neighbourhood vectors.
  auto w1 =
      ag::MakeParameter(Matrix::GlorotUniform(n, opt.hidden_dim, rng));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));

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

  VarPtr h;
  TrainLoop({w1, w2}, LoopOptions(opt, eo)).RunOrDie([&](int) {
    h = ag::MatMul(ag::LeakyRelu(ag::SpMM(&a_norm, w1), 0.01), w2);

    // L2nd: positives repeated with weight beta via Scale on a separate
    // positive-only loss (equivalent to the B weighting).
    VarPtr l2nd =
        ag::Add(ag::Scale(ag::InnerProductPairBce(h, positives), opt.beta),
                ag::InnerProductPairBce(h, negatives));
    if (edge_u.empty()) return l2nd;

    // L1st: sum over edges of ||h_u - h_v||^2.
    VarPtr diff = ag::Sub(ag::SelectRows(h, edge_u), ag::SelectRows(h, edge_v));
    return ag::Add(l2nd, ag::Scale(ag::SumSquares(diff), opt.alpha));
  });
  return h->value();
}

}  // namespace aneci
