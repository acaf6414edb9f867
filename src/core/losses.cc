#include "core/losses.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autograd/memory_planner.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace aneci {

using ag::VarPtr;

VarPtr GeneralizedModularityLoss(const SparseMatrix* proximity,
                                 const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  ANECI_CHECK_EQ(proximity->rows(), p->value().rows());
  const double two_m = proximity->SumAll();
  ANECI_CHECK_GT(two_m, 0.0);
  const std::vector<double> degrees = proximity->RowSumsVec();

  // Q~ = [ sum(P (.) A~P) - ||P^T k~||^2 / (2M~) ] / (2M~).
  VarPtr observed = ag::TraceQuadraticSparse(proximity, p);
  VarPtr null_model = ag::RowWeightedColSumSquares(p, degrees);
  return ag::Scale(
      ag::Sub(observed, ag::Scale(null_model, 1.0 / two_m)), 1.0 / two_m);
}

ag::VarPtr GeneralizedModularityMinLoss(const SparseMatrix* proximity,
                                        const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  const Matrix& pm = p->value();
  const int n = pm.rows();
  ANECI_CHECK_EQ(proximity->rows(), n);
  const double two_m = proximity->SumAll();
  ANECI_CHECK_GT(two_m, 0.0);
  const std::vector<double> deg = proximity->RowSumsVec();

  // Computes value and gradient together; the closure re-derives the
  // gradient from the stored primal (both passes are cheap).
  auto compute = [proximity, two_m, deg](const Matrix& pm, Matrix* grad) {
    const int n = pm.rows(), k = pm.cols();
    double observed = 0.0;
    // Observed term: sum over stored entries of A~ of sum_c min(P_ic, P_jc).
    for (int i = 0; i < n; ++i) {
      for (int64_t e = proximity->row_ptr()[i]; e < proximity->row_ptr()[i + 1];
           ++e) {
        const int j = proximity->col_idx()[e];
        const double a = proximity->values()[e];
        const double* pi = pm.RowPtr(i);
        const double* pj = pm.RowPtr(j);
        for (int c = 0; c < k; ++c) {
          observed += a * std::min(pi[c], pj[c]);
          if (grad != nullptr) {
            if (pi[c] < pj[c]) {
              (*grad)(i, c) += a;
            } else if (pj[c] < pi[c]) {
              (*grad)(j, c) += a;
            } else {
              (*grad)(i, c) += 0.5 * a;
              (*grad)(j, c) += 0.5 * a;
            }
          }
        }
      }
    }
    // Null model: sum_c sum_ij k_i k_j min(v_i, v_j) with v = P[:, c].
    // Sorting v ascending: the pair (i, j) contributes v of the earlier
    // index, so node at sorted position t contributes
    // v_t * k_t * (k_t + 2 * sum_{s > t} k_s).
    double null_model = 0.0;
    std::vector<int> order(n);
    for (int c = 0; c < k; ++c) {
      for (int i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return pm(a, c) < pm(b, c);
      });
      double suffix = 0.0;
      for (int i : order) suffix += deg[i];
      for (int t = 0; t < n; ++t) {
        const int i = order[t];
        suffix -= deg[i];
        const double coeff = deg[i] * (deg[i] + 2.0 * suffix);
        null_model += pm(i, c) * coeff;
        if (grad != nullptr) (*grad)(i, c) -= coeff / two_m;
      }
    }
    return (observed - null_model / two_m) / two_m;
  };

  Matrix scalar(1, 1);
  scalar(0, 0) = compute(pm, nullptr);
  auto out =
      std::make_shared<ag::Variable>(std::move(scalar), p->requires_grad());
  if (!p->requires_grad()) return out;
  out->parents = {p};
  out->backward_fn = [p, compute, two_m](ag::Variable& self) {
    Matrix grad = ag::AcquireGradZeroed(p->value().rows(), p->value().cols());
    compute(p->value(), &grad);
    grad *= self.grad()(0, 0) / two_m;
    p->AccumulateGrad(std::move(grad));
  };
  return out;
}

namespace {

double Softplus(double x) { return x > 30.0 ? x : std::log1p(std::exp(x)); }

// Rows per block of the dense forward pass, and rows per chunk within a
// block.
constexpr int kDenseForwardBlock = 64;
constexpr int64_t kDenseForwardGrain = 4;
// Rows per chunk of the dense backward gather. Each in-flight chunk holds a
// kDenseBackwardGrain x N tile of A~'s columns. No grain changes results:
// every row's sums run in the same order whatever chunk it lands in.
constexpr int64_t kDenseBackwardGrain = 16;

// out[j] = a . P_j for every row j of `pm`, each summed over increasing c
// exactly like `for (c) d += a[c] * pj[c]`. Four rows run interleaved only
// to overlap their dependency chains, so every value is bit-identical to
// that loop's.
void RowDots(const double* a, const Matrix& pm, double* out) {
  const int n = pm.rows(), k = pm.cols();
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = pm.RowPtr(j);
    const double* b1 = pm.RowPtr(j + 1);
    const double* b2 = pm.RowPtr(j + 2);
    const double* b3 = pm.RowPtr(j + 3);
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    for (int c = 0; c < k; ++c) {
      d0 += a[c] * b0[c];
      d1 += a[c] * b1[c];
      d2 += a[c] * b2[c];
      d3 += a[c] * b3[c];
    }
    out[j] = d0;
    out[j + 1] = d1;
    out[j + 2] = d2;
    out[j + 3] = d3;
  }
  for (; j < n; ++j) {
    const double* b = pm.RowPtr(j);
    double d = 0.0;
    for (int c = 0; c < k; ++c) d += a[c] * b[c];
    out[j] = d;
  }
}

// Columns [c0, c0 + B) of dr += g * coeff[j] * P_j for j = from..to-1 in
// increasing j, skipping zero weights like the reference scatter. The
// block is accumulated in registers; every column still adds its terms in
// j order, so the sums match the reference's bit for bit.
template <int B>
void GatherBlock(double g, const double* coeff, int from, int to,
                 const Matrix& pm, int c0, double* dr) {
  double acc[B];
  for (int c = 0; c < B; ++c) acc[c] = dr[c0 + c];
  for (int j = from; j < to; ++j) {
    const double w = g * coeff[j];
    if (w == 0.0) continue;
    const double* pj = pm.RowPtr(j) + c0;
    for (int c = 0; c < B; ++c) acc[c] += w * pj[c];
  }
  for (int c = 0; c < B; ++c) dr[c0 + c] = acc[c];
}

// dr += g * coeff[j] * P_j for j = from..to-1, in increasing j.
void Gather(double g, const double* coeff, int from, int to, const Matrix& pm,
            double* dr) {
  const int k = pm.cols();
  int c0 = 0;
  for (; c0 + 16 <= k; c0 += 16)
    GatherBlock<16>(g, coeff, from, to, pm, c0, dr);
  for (; c0 + 4 <= k; c0 += 4) GatherBlock<4>(g, coeff, from, to, pm, c0, dr);
  for (; c0 < k; ++c0) GatherBlock<1>(g, coeff, from, to, pm, c0, dr);
}

}  // namespace

// Both passes run on the pool yet produce the same bits as the row-by-row
// serial loops kept as the reference in tests/parallel_kernels_test.cc.
//
// Forward: for each block of rows, a row-parallel pass writes d_ij and
// softplus(d_ij); a serial pass then adds them in the reference order
// (per row, softplus over increasing j, then -a * d for each stored entry).
//
// Backward: the reference scatters, for every ordered pair (i, j) in
// row-major order, w_ij P_j into dP_i and w_ij P_i into dP_j, with
// w_ij = g (sigmoid(d_ij) - A~_ij). Row r thus receives, in order: w_ir P_i
// for i < r; its own row w_rj P_j for j = 0..N-1 (w_rr P_r twice); then
// w_ir P_i for i > r. Each row gathers exactly that sequence, so rows are
// independent. d_ir and d_ri are equal bit for bit (same products, same
// order), so one sigmoid row serves both roles; the column weights need
// A~'s column r, which each chunk copies into a dense tile holding +0.0
// where A~ stores nothing.
VarPtr DenseReconstructionLoss(const SparseMatrix* proximity,
                               const ag::VarPtr& p) {
  ANECI_CHECK(proximity != nullptr);
  const Matrix& pm = p->value();
  const int n = pm.rows();
  ANECI_CHECK_EQ(proximity->rows(), n);
  ANECI_CHECK_EQ(proximity->cols(), n);
  const std::vector<int64_t>& row_ptr = proximity->row_ptr();
  const std::vector<int>& col_idx = proximity->col_idx();
  const std::vector<double>& values = proximity->values();

  const int block = std::min(n, kDenseForwardBlock);
  std::vector<double> dots(static_cast<size_t>(block) * n);
  std::vector<double> terms(dots.size());
  double loss = 0.0;
  for (int i0 = 0; i0 < n; i0 += block) {
    const int i1 = std::min(n, i0 + block);
    ParallelFor(i0, i1, kDenseForwardGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        double* drow = dots.data() + (i - i0) * n;
        double* trow = terms.data() + (i - i0) * n;
        RowDots(pm.RowPtr(static_cast<int>(i)), pm, drow);
        // BCE(sigmoid(d), t) = softplus(d) - t*d.
        for (int j = 0; j < n; ++j) trow[j] = Softplus(drow[j]);
      }
    });
    for (int i = i0; i < i1; ++i) {
      const double* drow = dots.data() + static_cast<size_t>(i - i0) * n;
      const double* trow = terms.data() + static_cast<size_t>(i - i0) * n;
      for (int j = 0; j < n; ++j) loss += trow[j];
      for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e)
        loss -= values[e] * drow[col_idx[e]];
    }
  }

  Matrix scalar(1, 1);
  scalar(0, 0) = loss;
  auto out = std::make_shared<ag::Variable>(std::move(scalar),
                                            p->requires_grad());
  if (!p->requires_grad()) return out;
  out->parents = {p};
  out->backward_fn = [p, proximity](ag::Variable& self) {
    const double g = self.grad()(0, 0);
    const Matrix& pm = p->value();
    const int n = pm.rows(), k = pm.cols();
    const std::vector<int64_t>& row_ptr = proximity->row_ptr();
    const std::vector<int>& col_idx = proximity->col_idx();
    const std::vector<double>& values = proximity->values();
    const int64_t num_chunks = NumChunks(0, n, kDenseBackwardGrain);

    // starts[c * n + i]: the first entry of A~'s row i whose column lies in
    // chunk c or later (c == num_chunks: the row's end), from one linear
    // walk per row.
    std::vector<int64_t> starts(static_cast<size_t>(num_chunks + 1) * n);
    ParallelFor(0, n, kDenseBackwardGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        int64_t e = row_ptr[i];
        for (int64_t c = 0; c <= num_chunks; ++c) {
          const int64_t col_lo = c * kDenseBackwardGrain;
          while (e < row_ptr[i + 1] && col_idx[e] < col_lo) ++e;
          starts[c * n + i] = e;
        }
      }
    });

    Matrix dp = ag::AcquireGradUninit(n, k);
    ParallelForChunks(0, n, kDenseBackwardGrain, [&](int64_t lo, int64_t hi,
                                                     int64_t chunk) {
      // tile[(r - lo) * n + i] = A~(i, r), +0.0 where unstored.
      std::vector<double> tile(static_cast<size_t>(hi - lo) * n, 0.0);
      const int64_t* first = starts.data() + chunk * n;
      const int64_t* last = first + n;
      for (int i = 0; i < n; ++i)
        for (int64_t e = first[i]; e < last[i]; ++e)
          tile[(col_idx[e] - lo) * n + i] = values[e];
      std::vector<double> own(n);
      for (int r = static_cast<int>(lo); r < hi; ++r) {
        // own[j] = dL/dd_rj and col[i] = dL/dd_ir, both sigmoid(d) - t.
        double* col = tile.data() + (r - lo) * n;
        RowDots(pm.RowPtr(r), pm, own.data());
        for (int j = 0; j < n; ++j) own[j] = 1.0 / (1.0 + std::exp(-own[j]));
        for (int i = 0; i < n; ++i) col[i] = own[i] - col[i];
        for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e)
          own[col_idx[e]] -= values[e];

        double* dr = dp.RowPtr(r);
        std::fill(dr, dr + k, 0.0);
        Gather(g, col, 0, r, pm, dr);
        // Row r's own terms; the reference adds w_rr P_r twice.
        Gather(g, own.data(), 0, r + 1, pm, dr);
        Gather(g, own.data(), r, n, pm, dr);
        Gather(g, col, r + 1, n, pm, dr);
      }
    });
    p->AccumulateGrad(std::move(dp));
  };
  return out;
}

std::vector<ag::PairTarget> SampleReconstructionPairs(
    const SparseMatrix& proximity, int negatives_per_node, Rng& rng,
    bool binarize) {
  std::vector<ag::PairTarget> pairs;
  const int n = proximity.rows();
  pairs.reserve(proximity.nnz() + static_cast<int64_t>(n) * negatives_per_node);
  for (int i = 0; i < n; ++i) {
    for (int64_t e = proximity.row_ptr()[i]; e < proximity.row_ptr()[i + 1];
         ++e) {
      pairs.push_back({i, proximity.col_idx()[e],
                       binarize ? 1.0 : proximity.values()[e]});
    }
    for (int s = 0; s < negatives_per_node; ++s) {
      const int j = static_cast<int>(rng.NextInt(n));
      if (proximity.At(i, j) != 0.0) continue;  // Keep negatives clean.
      pairs.push_back({i, j, 0.0});
    }
  }
  return pairs;
}

std::shared_ptr<const ag::PairSet> SampleEdgePairs(const Graph& graph,
                                                   int negatives_per_edge,
                                                   Rng& rng) {
  const int n = graph.num_nodes();
  std::vector<ag::PairTarget> pairs;
  pairs.reserve(graph.num_edges() *
                static_cast<size_t>(1 + negatives_per_edge));
  for (const Edge& e : graph.edges()) {
    pairs.push_back({e.u, e.v, 1.0});
    for (int k = 0; k < negatives_per_edge; ++k) {
      const int a = static_cast<int>(rng.NextInt(n));
      const int b = static_cast<int>(rng.NextInt(n));
      if (a != b && !graph.HasEdge(a, b)) pairs.push_back({a, b, 0.0});
    }
  }
  return ag::PairSet::Build(std::move(pairs), n);
}

VarPtr SampledReconstructionLoss(const ag::VarPtr& p,
                                 std::shared_ptr<const ag::PairSet> pairs) {
  return ag::InnerProductPairBce(p, std::move(pairs));
}

VarPtr SampledReconstructionLoss(const ag::VarPtr& p,
                                 const std::vector<ag::PairTarget>& pairs) {
  return ag::InnerProductPairBce(p,
                                 ag::PairSet::Build(pairs, p->value().rows()));
}

}  // namespace aneci
