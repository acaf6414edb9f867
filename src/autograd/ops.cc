#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autograd/memory_planner.h"
#include "linalg/kernels/grain.h"
#include "linalg/kernels/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace aneci::ag {
namespace {

// Creates the output node and installs the backward closure if any input
// participates in differentiation.
VarPtr MakeOp(std::vector<VarPtr> parents, Matrix value,
              std::function<void(Variable&)> backward) {
  bool needs_grad = false;
  for (const VarPtr& p : parents) needs_grad = needs_grad || p->requires_grad();
  auto out = std::make_shared<Variable>(std::move(value), needs_grad);
  if (needs_grad) {
    out->parents = std::move(parents);
    out->backward_fn = std::move(backward);
  }
  return out;
}

Matrix Scalar(double v) {
  Matrix m(1, 1);
  m(0, 0) = v;
  return m;
}

}  // namespace

// The GEMM/SpMM backward closures call the kernel backend directly into an
// arena-acquired buffer (beta == 0 fully overwrites, so uninitialised
// storage is fine) instead of going through the allocating free functions.

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  Matrix value = aneci::MatMul(a->value(), b->value());
  return MakeOp({a, b}, std::move(value), [a, b](Variable& self) {
    const kernels::Backend& be = kernels::Active();
    if (a->requires_grad()) {
      Matrix ga = AcquireGradUninit(a->value().rows(), a->value().cols());
      be.Gemm(false, true, 1.0, self.grad(), b->value(), 0.0, &ga);
      a->AccumulateGrad(std::move(ga));
    }
    if (b->requires_grad()) {
      Matrix gb = AcquireGradUninit(b->value().rows(), b->value().cols());
      be.Gemm(true, false, 1.0, a->value(), self.grad(), 0.0, &gb);
      b->AccumulateGrad(std::move(gb));
    }
  });
}

VarPtr MatMulTransB(const VarPtr& a, const VarPtr& b) {
  Matrix value = aneci::MatMulTransB(a->value(), b->value());
  return MakeOp({a, b}, std::move(value), [a, b](Variable& self) {
    const kernels::Backend& be = kernels::Active();
    if (a->requires_grad()) {
      Matrix ga = AcquireGradUninit(a->value().rows(), a->value().cols());
      be.Gemm(false, false, 1.0, self.grad(), b->value(), 0.0, &ga);
      a->AccumulateGrad(std::move(ga));
    }
    if (b->requires_grad()) {
      Matrix gb = AcquireGradUninit(b->value().rows(), b->value().cols());
      be.Gemm(true, false, 1.0, self.grad(), a->value(), 0.0, &gb);
      b->AccumulateGrad(std::move(gb));
    }
  });
}

VarPtr SpMM(const SparseMatrix* s, const VarPtr& x) {
  ANECI_CHECK(s != nullptr);
  Matrix value = s->Multiply(x->value());
  return MakeOp({x}, std::move(value), [s, x](Variable& self) {
    if (x->requires_grad()) {
      Matrix gx = AcquireGradUninit(x->value().rows(), x->value().cols());
      kernels::Active().SpmmT(*s, self.grad(), &gx);
      x->AccumulateGrad(std::move(gx));
    }
  });
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  Matrix value = aneci::Add(a->value(), b->value());
  return MakeOp({a, b}, std::move(value), [a, b](Variable& self) {
    if (a->requires_grad()) a->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (b->requires_grad()) b->AccumulateGrad(AcquireGradCopy(self.grad()));
  });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  Matrix value = aneci::Sub(a->value(), b->value());
  return MakeOp({a, b}, std::move(value), [a, b](Variable& self) {
    if (a->requires_grad()) a->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (b->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g *= -1.0;
      b->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr Hadamard(const VarPtr& a, const VarPtr& b) {
  Matrix value = aneci::Hadamard(a->value(), b->value());
  return MakeOp({a, b}, std::move(value), [a, b](Variable& self) {
    if (a->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g.HadamardInPlace(b->value());
      a->AccumulateGrad(std::move(g));
    }
    if (b->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g.HadamardInPlace(a->value());
      b->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr Scale(const VarPtr& a, double s) {
  Matrix value = aneci::Scale(a->value(), s);
  return MakeOp({a}, std::move(value), [a, s](Variable& self) {
    if (a->requires_grad()) {
      Matrix g = AcquireGradCopy(self.grad());
      g *= s;
      a->AccumulateGrad(std::move(g));
    }
  });
}

VarPtr AddRowBroadcast(const VarPtr& x, const VarPtr& bias) {
  ANECI_CHECK_EQ(bias->value().rows(), 1);
  ANECI_CHECK_EQ(bias->value().cols(), x->value().cols());
  Matrix value = x->value();
  for (int r = 0; r < value.rows(); ++r) {
    double* row = value.RowPtr(r);
    const double* b = bias->value().RowPtr(0);
    for (int c = 0; c < value.cols(); ++c) row[c] += b[c];
  }
  return MakeOp({x, bias}, std::move(value), [x, bias](Variable& self) {
    if (x->requires_grad()) x->AccumulateGrad(AcquireGradCopy(self.grad()));
    if (bias->requires_grad()) {
      Matrix g = AcquireGradZeroed(1, self.grad().cols());
      for (int r = 0; r < self.grad().rows(); ++r) {
        const double* row = self.grad().RowPtr(r);
        for (int c = 0; c < self.grad().cols(); ++c) g(0, c) += row[c];
      }
      bias->AccumulateGrad(std::move(g));
    }
  });
}

namespace {

template <typename F, typename G>
VarPtr ElementwiseOp(const VarPtr& x, F f, G grad_from_self) {
  Matrix value = x->value();
  value.Apply(f);
  return MakeOp({x}, std::move(value),
                [x, grad_from_self = std::move(grad_from_self)](
                    Variable& self) {
                  if (x->requires_grad())
                    x->AccumulateGrad(grad_from_self(self));
                });
}

}  // namespace

VarPtr Relu(const VarPtr& x) {
  return ElementwiseOp(
      x, [](double v) { return v > 0.0 ? v : 0.0; },
      [x](const Variable& self) {
        Matrix g = AcquireGradCopy(self.grad());
        for (int64_t i = 0; i < g.size(); ++i)
          if (x->value().data()[i] <= 0.0) g.data()[i] = 0.0;
        return g;
      });
}

VarPtr Exp(const VarPtr& x) {
  Matrix value = x->value();
  value.Apply([](double v) { return std::exp(v); });
  return MakeOp({x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    g.HadamardInPlace(self.value());
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr MeanRows(const VarPtr& x) {
  const int n = x->value().rows(), c = x->value().cols();
  ANECI_CHECK_GT(n, 0);
  Matrix value(1, c);
  for (int r = 0; r < n; ++r) {
    const double* row = x->value().RowPtr(r);
    for (int j = 0; j < c; ++j) value(0, j) += row[j];
  }
  for (int j = 0; j < c; ++j) value(0, j) /= n;
  return MakeOp({x}, std::move(value), [x, n](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix dx = AcquireGradUninit(x->value().rows(), x->value().cols());
    const double* g = self.grad().RowPtr(0);
    for (int r = 0; r < dx.rows(); ++r) {
      double* row = dx.RowPtr(r);
      for (int j = 0; j < dx.cols(); ++j) row[j] = g[j] / n;
    }
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr LeakyRelu(const VarPtr& x, double alpha) {
  return ElementwiseOp(
      x, [alpha](double v) { return v > 0.0 ? v : alpha * v; },
      [x, alpha](const Variable& self) {
        Matrix g = AcquireGradCopy(self.grad());
        for (int64_t i = 0; i < g.size(); ++i)
          if (x->value().data()[i] <= 0.0) g.data()[i] *= alpha;
        return g;
      });
}

VarPtr Sigmoid(const VarPtr& x) {
  Matrix value = x->value();
  value.Apply([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  return MakeOp({x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    const double* y = self.value().data();
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] *= y[i] * (1.0 - y[i]);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Tanh(const VarPtr& x) {
  Matrix value = x->value();
  value.Apply([](double v) { return std::tanh(v); });
  return MakeOp({x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(self.grad());
    const double* y = self.value().data();
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] *= 1.0 - y[i] * y[i];
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr Transpose(const VarPtr& x) {
  Matrix value = aneci::Transpose(x->value());
  return MakeOp({x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    const Matrix& dy = self.grad();
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    for (int r = 0; r < g.rows(); ++r)
      for (int c = 0; c < g.cols(); ++c) g(r, c) = dy(c, r);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr RowSoftmax(const VarPtr& x) {
  Matrix value = aneci::RowSoftmax(x->value());
  return MakeOp({x}, std::move(value), [x](Variable& self) {
    if (!x->requires_grad()) return;
    // dx_row = y (.) (dy - (dy . y)).
    const Matrix& y = self.value();
    const Matrix& dy = self.grad();
    Matrix dx = AcquireGradUninit(y.rows(), y.cols());
    for (int r = 0; r < y.rows(); ++r) {
      const double* yr = y.RowPtr(r);
      const double* dyr = dy.RowPtr(r);
      double dot = 0.0;
      for (int c = 0; c < y.cols(); ++c) dot += dyr[c] * yr[c];
      double* dxr = dx.RowPtr(r);
      for (int c = 0; c < y.cols(); ++c) dxr[c] = yr[c] * (dyr[c] - dot);
    }
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr SumAll(const VarPtr& x) {
  return MakeOp({x}, Scalar(x->value().Sum()), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    g.Fill(self.grad()(0, 0));
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr MeanAll(const VarPtr& x) {
  const double inv = 1.0 / static_cast<double>(x->value().size());
  return MakeOp({x}, Scalar(x->value().Sum() * inv), [x, inv](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradUninit(x->value().rows(), x->value().cols());
    g.Fill(self.grad()(0, 0) * inv);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr SumSquares(const VarPtr& x) {
  double s = 0.0;
  for (int64_t i = 0; i < x->value().size(); ++i) {
    const double v = x->value().data()[i];
    s += v * v;
  }
  return MakeOp({x}, Scalar(s), [x](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix g = AcquireGradCopy(x->value());
    g *= 2.0 * self.grad()(0, 0);
    x->AccumulateGrad(std::move(g));
  });
}

VarPtr BinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                             double eps) {
  return WeightedBinaryCrossEntropySum(p, targets, 1.0, eps);
}

VarPtr WeightedBinaryCrossEntropySum(const VarPtr& p, const Matrix& targets,
                                     double pos_weight, double eps) {
  ANECI_CHECK(p->value().rows() == targets.rows() &&
              p->value().cols() == targets.cols());
  const int64_t n = p->value().size();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double pv = std::clamp(p->value().data()[i], eps, 1.0 - eps);
    const double t = targets.data()[i];
    loss -= pos_weight * t * std::log(pv) + (1.0 - t) * std::log(1.0 - pv);
  }
  // The closure must not dangle: copy targets.
  Matrix t_copy = targets;
  return MakeOp({p}, Scalar(loss),
                [p, t_copy = std::move(t_copy), pos_weight, eps](Variable& self) {
                  if (!p->requires_grad()) return;
                  const double g = self.grad()(0, 0);
                  Matrix dp =
                      AcquireGradUninit(p->value().rows(), p->value().cols());
                  for (int64_t i = 0; i < dp.size(); ++i) {
                    const double pv =
                        std::clamp(p->value().data()[i], eps, 1.0 - eps);
                    const double t = t_copy.data()[i];
                    dp.data()[i] =
                        g * (-pos_weight * t / pv + (1.0 - t) / (1.0 - pv));
                  }
                  p->AccumulateGrad(std::move(dp));
                });
}

VarPtr SoftmaxCrossEntropy(const VarPtr& logits, const std::vector<int>& rows,
                           const std::vector<int>& labels) {
  ANECI_CHECK_EQ(rows.size(), labels.size());
  ANECI_CHECK(!rows.empty());
  const Matrix& x = logits->value();
  const int c = x.cols();
  // Forward: mean NLL over the selected rows.
  double loss = 0.0;
  Matrix probs(static_cast<int>(rows.size()), c);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* in = x.RowPtr(rows[i]);
    double mx = in[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, in[j]);
    double sum = 0.0;
    double* pr = probs.RowPtr(static_cast<int>(i));
    for (int j = 0; j < c; ++j) {
      pr[j] = std::exp(in[j] - mx);
      sum += pr[j];
    }
    for (int j = 0; j < c; ++j) pr[j] /= sum;
    ANECI_CHECK(labels[i] >= 0 && labels[i] < c);
    loss -= std::log(std::max(pr[labels[i]], 1e-12));
  }
  loss /= static_cast<double>(rows.size());
  return MakeOp(
      {logits}, Scalar(loss),
      [logits, rows, labels, probs = std::move(probs)](Variable& self) {
        if (!logits->requires_grad()) return;
        const double g = self.grad()(0, 0) / static_cast<double>(rows.size());
        Matrix dx =
            AcquireGradZeroed(logits->value().rows(), logits->value().cols());
        for (size_t i = 0; i < rows.size(); ++i) {
          const double* pr = probs.RowPtr(static_cast<int>(i));
          double* dr = dx.RowPtr(rows[i]);
          for (int j = 0; j < dx.cols(); ++j) dr[j] += g * pr[j];
          dr[labels[i]] -= g;
        }
        logits->AccumulateGrad(std::move(dx));
      });
}

VarPtr TraceQuadraticSparse(const SparseMatrix* s, const VarPtr& p) {
  ANECI_CHECK(s != nullptr);
  ANECI_CHECK_EQ(s->cols(), p->value().rows());
  Matrix sp = s->Multiply(p->value());
  double f = 0.0;
  for (int64_t i = 0; i < sp.size(); ++i)
    f += sp.data()[i] * p->value().data()[i];
  return MakeOp({p}, Scalar(f), [s, p](Variable& self) {
    if (!p->requires_grad()) return;
    const double g = self.grad()(0, 0);
    // d/dP [sum(P (.) SP)] = (S + S^T) P.
    const kernels::Backend& be = kernels::Active();
    Matrix d = AcquireGradUninit(p->value().rows(), p->value().cols());
    be.Spmm(*s, p->value(), &d);
    Matrix dt = AcquireGradUninit(p->value().rows(), p->value().cols());
    be.SpmmT(*s, p->value(), &dt);
    d += dt;
    ReleaseGrad(std::move(dt));
    d *= g;
    p->AccumulateGrad(std::move(d));
  });
}

VarPtr RowWeightedColSumSquares(const VarPtr& p, const std::vector<double>& k) {
  ANECI_CHECK_EQ(static_cast<int>(k.size()), p->value().rows());
  const int cols = p->value().cols();
  std::vector<double> v(cols, 0.0);  // v = P^T k.
  for (int r = 0; r < p->value().rows(); ++r) {
    const double* row = p->value().RowPtr(r);
    for (int c = 0; c < cols; ++c) v[c] += k[r] * row[c];
  }
  double f = 0.0;
  for (double x : v) f += x * x;
  return MakeOp({p}, Scalar(f), [p, k, v](Variable& self) {
    if (!p->requires_grad()) return;
    const double g = self.grad()(0, 0);
    Matrix d = AcquireGradUninit(p->value().rows(), p->value().cols());
    for (int r = 0; r < d.rows(); ++r) {
      double* row = d.RowPtr(r);
      for (int c = 0; c < d.cols(); ++c) row[c] = g * 2.0 * k[r] * v[c];
    }
    p->AccumulateGrad(std::move(d));
  });
}

VarPtr SelectRows(const VarPtr& x, const std::vector<int>& rows) {
  Matrix value = x->value().SelectRows(rows);
  return MakeOp({x}, std::move(value), [x, rows](Variable& self) {
    if (!x->requires_grad()) return;
    Matrix dx = AcquireGradZeroed(x->value().rows(), x->value().cols());
    for (size_t i = 0; i < rows.size(); ++i) {
      const double* g = self.grad().RowPtr(static_cast<int>(i));
      double* d = dx.RowPtr(rows[i]);
      for (int c = 0; c < dx.cols(); ++c) d[c] += g[c];
    }
    x->AccumulateGrad(std::move(dx));
  });
}

VarPtr GraphAttention(const SparseMatrix* adj, const VarPtr& h,
                      const VarPtr& a_src, const VarPtr& a_dst, double slope) {
  ANECI_CHECK(adj != nullptr);
  const Matrix& hm = h->value();
  const int n = hm.rows(), d = hm.cols();
  ANECI_CHECK_EQ(adj->rows(), n);
  ANECI_CHECK_EQ(adj->cols(), n);
  ANECI_CHECK(a_src->value().rows() == 1 && a_src->value().cols() == d);
  ANECI_CHECK(a_dst->value().rows() == 1 && a_dst->value().cols() == d);

  // Per-node attention projections s_i = a_src . h_i, t_i = a_dst . h_i.
  std::vector<double> s(n, 0.0), t(n, 0.0);
  const double* as = a_src->value().RowPtr(0);
  const double* ad = a_dst->value().RowPtr(0);
  for (int i = 0; i < n; ++i) {
    const double* hi = hm.RowPtr(i);
    for (int c = 0; c < d; ++c) {
      s[i] += as[c] * hi[c];
      t[i] += ad[c] * hi[c];
    }
  }

  // Attention weights per stored edge, row-softmaxed.
  std::vector<double> alpha(adj->nnz(), 0.0);
  Matrix out(n, d);
  for (int i = 0; i < n; ++i) {
    const int64_t begin = adj->row_ptr()[i], end = adj->row_ptr()[i + 1];
    if (begin == end) continue;
    double mx = -1e300;
    for (int64_t e = begin; e < end; ++e) {
      const double raw = s[i] + t[adj->col_idx()[e]];
      alpha[e] = raw > 0.0 ? raw : slope * raw;  // LeakyReLU.
      mx = std::max(mx, alpha[e]);
    }
    double sum = 0.0;
    for (int64_t e = begin; e < end; ++e) {
      alpha[e] = std::exp(alpha[e] - mx);
      sum += alpha[e];
    }
    double* oi = out.RowPtr(i);
    for (int64_t e = begin; e < end; ++e) {
      alpha[e] /= sum;
      const double* hj = hm.RowPtr(adj->col_idx()[e]);
      for (int c = 0; c < d; ++c) oi[c] += alpha[e] * hj[c];
    }
  }

  return MakeOp(
      {h, a_src, a_dst}, std::move(out),
      [adj, h, a_src, a_dst, slope, s = std::move(s), t = std::move(t),
       alpha = std::move(alpha)](Variable& self) {
        const Matrix& hm = h->value();
        const int n = hm.rows(), d = hm.cols();
        const Matrix& dout = self.grad();
        const double* as = a_src->value().RowPtr(0);
        const double* ad = a_dst->value().RowPtr(0);

        Matrix dh = AcquireGradZeroed(n, d);
        std::vector<double> ds(n, 0.0), dt(n, 0.0);

        for (int i = 0; i < n; ++i) {
          const int64_t begin = adj->row_ptr()[i], end = adj->row_ptr()[i + 1];
          if (begin == end) continue;
          const double* gi = dout.RowPtr(i);
          // dalpha_ij = dout_i . h_j ; dh_j += alpha_ij * dout_i.
          double weighted = 0.0;  // sum_k alpha_ik dalpha_ik for the softmax.
          std::vector<double> dalpha(end - begin);
          for (int64_t e = begin; e < end; ++e) {
            const int j = adj->col_idx()[e];
            const double* hj = hm.RowPtr(j);
            double da = 0.0;
            for (int c = 0; c < d; ++c) da += gi[c] * hj[c];
            dalpha[e - begin] = da;
            weighted += alpha[e] * da;
            double* dhj = dh.RowPtr(j);
            for (int c = 0; c < d; ++c) dhj[c] += alpha[e] * gi[c];
          }
          for (int64_t e = begin; e < end; ++e) {
            const int j = adj->col_idx()[e];
            // Softmax jacobian, then the LeakyReLU derivative.
            double de = alpha[e] * (dalpha[e - begin] - weighted);
            const double raw = s[i] + t[j];
            if (raw <= 0.0) de *= slope;
            ds[i] += de;
            dt[j] += de;
          }
        }

        // s_i = a_src . h_i and t_i = a_dst . h_i contributions.
        Matrix da_src = AcquireGradZeroed(1, d);
        Matrix da_dst = AcquireGradZeroed(1, d);
        for (int i = 0; i < n; ++i) {
          const double* hi = hm.RowPtr(i);
          double* dhi = dh.RowPtr(i);
          for (int c = 0; c < d; ++c) {
            dhi[c] += ds[i] * as[c] + dt[i] * ad[c];
            da_src(0, c) += ds[i] * hi[c];
            da_dst(0, c) += dt[i] * hi[c];
          }
        }
        if (h->requires_grad()) h->AccumulateGrad(std::move(dh));
        if (a_src->requires_grad()) a_src->AccumulateGrad(std::move(da_src));
        if (a_dst->requires_grad()) a_dst->AccumulateGrad(std::move(da_dst));
      });
}

std::shared_ptr<const PairSet> PairSet::Build(std::vector<PairTarget> pairs,
                                              int num_rows) {
  ANECI_CHECK_GE(num_rows, 0);
  ANECI_CHECK_LE(pairs.size(),
                 static_cast<size_t>(std::numeric_limits<int>::max()));
  std::shared_ptr<PairSet> set(new PairSet());
  set->num_rows_ = num_rows;
  // Counting sort by row: count both endpoints of every pair, prefix-sum,
  // then place the entries in pair order, so each row's list ascends by
  // pair index and a self-pair's u side lands before its v side.
  std::vector<int64_t>& row_ptr = set->row_ptr_;
  row_ptr.assign(static_cast<size_t>(num_rows) + 1, 0);
  for (const PairTarget& pt : pairs) {
    ANECI_CHECK_MSG(
        pt.u >= 0 && pt.u < num_rows && pt.v >= 0 && pt.v < num_rows,
        "pair endpoint outside [0, num_rows)");
    ++row_ptr[pt.u + 1];
    ++row_ptr[pt.v + 1];
  }
  for (int r = 0; r < num_rows; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<int64_t> next(row_ptr.begin(), row_ptr.end() - 1);
  set->incidence_.resize(2 * pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int idx = static_cast<int>(i);
    set->incidence_[next[pairs[i].u]++] = {idx, pairs[i].v};
    set->incidence_[next[pairs[i].v]++] = {idx, pairs[i].u};
  }
  set->pairs_ = std::move(pairs);
  return set;
}

namespace {

// Pairs per chunk of the pair-parallel pass. Grain never changes results:
// every pair writes only its own slots.
constexpr int64_t kPairGrain = 1024;

// log(1 + e^x), overflow-safe.
double Softplus(double x) { return x > 30.0 ? x : std::log1p(std::exp(x)); }

}  // namespace

// Forward: a pair-parallel pass writes each pair's loss term and its
// residual sigmoid(d) - t, then one serial pass sums the terms in pair
// order. Backward: a row-parallel gather along the incidence index gives
// row r the additions g * residual * P[other] that a serial scatter over
// the pairs would make to it, in the same order. Both therefore match the
// serial loops bit for bit at any thread count.
VarPtr InnerProductPairBce(const VarPtr& p,
                           std::shared_ptr<const PairSet> pairs) {
  ANECI_CHECK(pairs != nullptr);
  const Matrix& pm = p->value();
  ANECI_CHECK_EQ(pairs->num_rows(), pm.rows());
  const int k = pm.cols();
  const int m = static_cast<int>(pairs->size());
  const bool needs_grad = p->requires_grad();
  const PairTarget* pt = pairs->pairs().data();
  Matrix terms = AcquireGradUninit(m, 1);
  Matrix resid = needs_grad ? AcquireGradUninit(m, 1) : Matrix();
  ParallelFor(0, m, kPairGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const double* a = pm.RowPtr(pt[i].u);
      const double* b = pm.RowPtr(pt[i].v);
      double d = 0.0;
      for (int c = 0; c < k; ++c) d += a[c] * b[c];
      // BCE(sigmoid(d), t) = softplus(d) - t * d.
      terms.data()[i] = Softplus(d) - pt[i].target * d;
      if (needs_grad)
        resid.data()[i] = 1.0 / (1.0 + std::exp(-d)) - pt[i].target;
    }
  });
  double loss = 0.0;
  for (int i = 0; i < m; ++i) loss += terms.data()[i];
  ReleaseGrad(std::move(terms));
  return MakeOp(
      {p}, Scalar(loss),
      [p, pairs = std::move(pairs), resid = std::move(resid)](Variable& self) {
        if (!p->requires_grad()) return;
        const double g = self.grad()(0, 0);
        const Matrix& pm = p->value();
        const int rows = pm.rows(), k = pm.cols();
        const double* res = resid.data();
        Matrix dp = AcquireGradUninit(rows, k);
        const int64_t grain =
            kernels::SpmmRowGrain(rows, 2 * pairs->size(), k);
        ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const int row = static_cast<int>(r);
            double* dr = dp.RowPtr(row);
            std::fill(dr, dr + k, 0.0);
            for (const PairSet::Incidence* e = pairs->RowBegin(row);
                 e != pairs->RowEnd(row); ++e) {
              const double coeff = g * res[e->pair];
              const double* o = pm.RowPtr(e->other);
              for (int c = 0; c < k; ++c) dr[c] += coeff * o[c];
            }
          }
        });
        p->AccumulateGrad(std::move(dp));
      });
}

}  // namespace aneci::ag
