// Serial-equivalence property tests for the parallelized kernels: for
// randomized shapes/sparsities, outputs at ANECI_THREADS in {2, 7} must be
// BIT-identical to the serial path (ANECI_THREADS=1). Exact == is valid —
// not approximate — because every kernel either writes disjoint output
// slices with unchanged per-element operation order, or merges per-chunk
// partials in a fixed chunk order independent of the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/tsne.h"
#include "autograd/ops.h"
#include "core/aneci.h"
#include "core/losses.h"
#include "data/sbm.h"
#include "graph/proximity.h"
#include "linalg/kmeans.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

const int kThreadSettings[] = {2, 7};

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0)
      << what << ": parallel result differs bitwise from serial";
}

void ExpectBitEqual(const SparseMatrix& a, const SparseMatrix& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        sizeof(double) * a.nnz()),
            0)
      << what << ": parallel values differ bitwise from serial";
}

Matrix RandomMatrix(int rows, int cols, Rng& rng, double zero_fraction) {
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  // Inject exact zeros to exercise the av == 0.0 skip branches.
  for (int64_t i = 0; i < m.size(); ++i)
    if (rng.NextBool(zero_fraction)) m.data()[i] = 0.0;
  return m;
}

SparseMatrix RandomSparse(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.NextBool(density)) trips.push_back({r, c, rng.Uniform(-2, 2)});
  return SparseMatrix::FromTriplets(rows, cols, trips);
}

// Runs `compute` serially, then at each threaded setting, comparing each
// dense result bitwise against the serial one.
void CheckDense(const std::function<Matrix()>& compute, const char* what) {
  Matrix serial;
  {
    ScopedNumThreads guard(1);
    serial = compute();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(compute(), serial, what);
  }
}

void CheckSparse(const std::function<SparseMatrix()>& compute,
                 const char* what) {
  SparseMatrix serial;
  {
    ScopedNumThreads guard(1);
    serial = compute();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(compute(), serial, what);
  }
}

TEST(ParallelKernels, MatMulMatchesSerialBitwise) {
  Rng shapes(101);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(shapes.NextInt(90));
    const int k = 1 + static_cast<int>(shapes.NextInt(70));
    const int n = 1 + static_cast<int>(shapes.NextInt(80));
    Rng rng(1000 + trial);
    const Matrix a = RandomMatrix(m, k, rng, 0.2);
    const Matrix b = RandomMatrix(k, n, rng, 0.1);
    CheckDense([&] { return MatMul(a, b); }, "MatMul");
  }
}

TEST(ParallelKernels, MatMulTransAMatchesSerialBitwise) {
  Rng shapes(102);
  for (int trial = 0; trial < 8; ++trial) {
    const int k = 1 + static_cast<int>(shapes.NextInt(90));
    const int m = 1 + static_cast<int>(shapes.NextInt(70));
    const int n = 1 + static_cast<int>(shapes.NextInt(60));
    Rng rng(2000 + trial);
    const Matrix a = RandomMatrix(k, m, rng, 0.25);
    const Matrix b = RandomMatrix(k, n, rng, 0.0);
    CheckDense([&] { return MatMulTransA(a, b); }, "MatMulTransA");
  }
}

TEST(ParallelKernels, MatMulTransBMatchesSerialBitwise) {
  Rng shapes(103);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(shapes.NextInt(80));
    const int k = 1 + static_cast<int>(shapes.NextInt(50));
    const int n = 1 + static_cast<int>(shapes.NextInt(90));
    Rng rng(3000 + trial);
    const Matrix a = RandomMatrix(m, k, rng, 0.0);
    const Matrix b = RandomMatrix(n, k, rng, 0.15);
    CheckDense([&] { return MatMulTransB(a, b); }, "MatMulTransB");
  }
}

TEST(ParallelKernels, SpmmMatchesSerialBitwise) {
  Rng shapes(104);
  for (double density : {0.02, 0.15, 0.6}) {
    const int rows = 20 + static_cast<int>(shapes.NextInt(120));
    const int cols = 20 + static_cast<int>(shapes.NextInt(120));
    const int k = 1 + static_cast<int>(shapes.NextInt(40));
    Rng rng(4000 + static_cast<uint64_t>(density * 100));
    const SparseMatrix s = RandomSparse(rows, cols, density, rng);
    const Matrix x = RandomMatrix(cols, k, rng, 0.0);
    const Matrix xt = RandomMatrix(rows, k, rng, 0.0);
    CheckDense([&] { return s.Multiply(x); }, "SparseMatrix::Multiply");
    CheckDense([&] { return s.MultiplyTransposed(xt); },
               "SparseMatrix::MultiplyTransposed");
  }
}

TEST(ParallelKernels, SpGemmAndRowNormalizeMatchSerialBitwise) {
  Rng shapes(105);
  for (double density : {0.03, 0.2}) {
    const int n = 30 + static_cast<int>(shapes.NextInt(100));
    Rng rng(5000 + static_cast<uint64_t>(density * 100));
    const SparseMatrix a = RandomSparse(n, n, density, rng);
    const SparseMatrix b = RandomSparse(n, n, density, rng);
    CheckSparse([&] { return a.MultiplySparse(b); },
                "SparseMatrix::MultiplySparse");
    CheckSparse([&] { return a.MultiplySparse(b, /*drop_tol=*/1e-3); },
                "SparseMatrix::MultiplySparse(drop_tol)");
    CheckSparse([&] { return a.RowNormalizedL1(); },
                "SparseMatrix::RowNormalizedL1");
  }
}

TEST(ParallelKernels, HighOrderProximityMatchesSerialBitwise) {
  Rng rng(106);
  const int n = 80;
  std::vector<Triplet> trips;
  for (int r = 0; r < n; ++r) {
    for (int c = r + 1; c < n; ++c) {
      if (rng.NextBool(0.06)) {
        trips.push_back({r, c, 1.0});
        trips.push_back({c, r, 1.0});
      }
    }
  }
  const SparseMatrix adj = SparseMatrix::FromTriplets(n, n, trips);
  ProximityOptions options;
  options.order = 3;
  options.weights = {1.0, 0.5, 0.25};
  CheckSparse([&] { return HighOrderProximityFromAdjacency(adj, options); },
              "HighOrderProximity");
}

TEST(ParallelKernels, KMeansMatchesSerialBitwise) {
  // Same seed per thread setting: identical assignment, centroids, inertia
  // and rng consumption (empty-cluster reseeds happen in serial sections).
  Rng data_rng(107);
  const Matrix points = Matrix::RandomNormal(400, 12, 1.0, data_rng);
  KMeansOptions options;
  options.max_iterations = 25;
  options.restarts = 2;

  auto run = [&] {
    Rng rng(77);
    return KMeans(points, 5, rng, options);
  };
  KMeansResult serial;
  {
    ScopedNumThreads guard(1);
    serial = run();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    const KMeansResult parallel = run();
    EXPECT_EQ(parallel.assignment, serial.assignment);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    // Bitwise, not approximate: the chunk-ordered merge is deterministic.
    EXPECT_EQ(std::memcmp(&parallel.inertia, &serial.inertia,
                          sizeof(double)),
              0);
    ExpectBitEqual(parallel.centroids, serial.centroids, "KMeans centroids");
  }
}

TEST(ParallelKernels, TsneMatchesSerialBitwise) {
  Rng data_rng(108);
  const Matrix points = Matrix::RandomNormal(48, 8, 1.0, data_rng);
  TsneOptions options;
  options.iterations = 30;
  options.exaggeration_iters = 10;

  auto run = [&] {
    Rng rng(9);
    return Tsne(points, options, rng);
  };
  Matrix serial;
  {
    ScopedNumThreads guard(1);
    serial = run();
  }
  for (int threads : kThreadSettings) {
    ScopedNumThreads guard(threads);
    ExpectBitEqual(run(), serial, "Tsne");
  }
}

TEST(ParallelKernels, EnvThreadSettingOneForcesSerialPath) {
  // With the pool at size 1 no workers exist, so everything runs on the
  // calling thread; sanity-check a kernel still works there.
  ScopedNumThreads guard(1);
  Rng rng(109);
  const Matrix a = RandomMatrix(17, 9, rng, 0.1);
  const Matrix b = RandomMatrix(9, 13, rng, 0.1);
  const Matrix c = MatMul(a, b);
  for (int i = 0; i < 17; ++i)
    for (int j = 0; j < 13; ++j) {
      double s = 0.0;
      for (int k = 0; k < 9; ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
}

// --- Sampled pair loss -----------------------------------------------------

struct LossAndGrad {
  double loss = 0.0;
  Matrix grad;
};

// Oracle: the serial InnerProductPairBce forward and backward loops from
// before the op ran on the pool, verbatim, with the upstream gradient `g`.
LossAndGrad SerialPairBce(const Matrix& pm,
                          const std::vector<ag::PairTarget>& pairs, double g) {
  using ag::PairTarget;
  LossAndGrad out;
  {
    const int k = pm.cols();
    auto softplus = [](double x) {
      // log(1 + e^x), overflow-safe.
      return x > 30.0 ? x : std::log1p(std::exp(x));
    };
    double loss = 0.0;
    for (const PairTarget& pt : pairs) {
      double d = 0.0;
      const double* a = pm.RowPtr(pt.u);
      const double* b = pm.RowPtr(pt.v);
      for (int c = 0; c < k; ++c) d += a[c] * b[c];
      // BCE(sigmoid(d), t) = softplus(d) - t * d.
      loss += softplus(d) - pt.target * d;
    }
    out.loss = loss;
  }
  {
    const int k = pm.cols();
    Matrix dp(pm.rows(), pm.cols());
    for (const PairTarget& pt : pairs) {
      double d = 0.0;
      const double* a = pm.RowPtr(pt.u);
      const double* b = pm.RowPtr(pt.v);
      for (int c = 0; c < k; ++c) d += a[c] * b[c];
      const double s = 1.0 / (1.0 + std::exp(-d));
      const double coeff = g * (s - pt.target);
      double* du = dp.RowPtr(pt.u);
      double* dv = dp.RowPtr(pt.v);
      for (int c = 0; c < k; ++c) {
        du[c] += coeff * b[c];
        dv[c] += coeff * a[c];
      }
    }
    out.grad = std::move(dp);
  }
  return out;
}

// Unsorted random pairs over the first `used_rows` of `rows` (the rest get
// no pairs), with duplicates, self-pairs and fractional targets mixed in.
std::vector<ag::PairTarget> RandomPairs(int num_pairs, int used_rows,
                                        Rng& rng) {
  std::vector<ag::PairTarget> pairs;
  for (int i = 0; i < num_pairs; ++i) {
    const int u = static_cast<int>(rng.NextInt(used_rows));
    const int v = rng.NextBool(0.05) ? u
                                     : static_cast<int>(rng.NextInt(used_rows));
    const double t = rng.NextBool(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
    pairs.push_back({u, v, t});
    if (rng.NextBool(0.05)) pairs.push_back(pairs.back());  // Duplicate.
  }
  return pairs;
}

TEST(ParallelKernels, PairBceMatchesSerialLoopBitwise) {
  constexpr double kUpstream = 0.37;
  const int kThreads[] = {1, 2, 7};
  Rng rng(110);
  for (int k : {1, 5, 16}) {
    for (int num_pairs : {0, 7, 9000}) {
      const int rows = 1300, used_rows = 1200;
      Matrix pm = Matrix::RandomNormal(rows, k, 1.5, rng);
      // A few large rows push p_u . p_v past softplus's linear cutoff.
      for (int c = 0; c < k; ++c) pm(3, c) = 40.0 / std::sqrt(k);
      std::vector<ag::PairTarget> pairs = RandomPairs(num_pairs, used_rows, rng);
      if (num_pairs > 0) pairs.push_back({3, 3, 1.0});
      const LossAndGrad want = SerialPairBce(pm, pairs, kUpstream);
      const auto set = ag::PairSet::Build(pairs, rows);
      for (int threads : kThreads) {
        ScopedNumThreads guard(threads);
        auto p = ag::MakeParameter(pm);
        ag::VarPtr loss = ag::InnerProductPairBce(p, set);
        ag::Backward(ag::Scale(loss, kUpstream));
        const double got = loss->value()(0, 0);
        EXPECT_EQ(std::memcmp(&got, &want.loss, sizeof(double)), 0)
            << "k=" << k << " pairs=" << num_pairs << " threads=" << threads;
        ExpectBitEqual(p->grad(), want.grad, "InnerProductPairBce gradient");
      }
    }
  }
}

TEST(ParallelKernels, PairSetIndexListsEachRowsPairsInOrder) {
  // Pair 1 is a self-pair: row 2 lists it twice, u side first.
  const auto set =
      ag::PairSet::Build({{2, 0, 1.0}, {2, 2, 0.5}, {1, 2, 0.0}}, 4);
  auto row = [&](int r) {
    std::vector<std::pair<int, int>> out;
    for (const auto* e = set->RowBegin(r); e != set->RowEnd(r); ++e)
      out.push_back({e->pair, e->other});
    return out;
  };
  using Entries = std::vector<std::pair<int, int>>;
  EXPECT_EQ(row(0), (Entries{{0, 2}}));
  EXPECT_EQ(row(1), (Entries{{2, 2}}));
  EXPECT_EQ(row(2), (Entries{{0, 0}, {1, 2}, {1, 2}, {2, 1}}));
  EXPECT_EQ(row(3), Entries{});
  EXPECT_EQ(set->size(), 3);
}

TEST(ParallelKernelsDeathTest, PairSetRejectsEndpointOutsideRows) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ag::PairSet::Build({{0, 3, 1.0}}, 3), "outside");
  EXPECT_DEATH(ag::PairSet::Build({{-1, 0, 1.0}}, 3), "outside");
}

// --- Dense reconstruction loss ---------------------------------------------

// Oracle: the serial DenseReconstructionLoss forward and backward loops from
// before the loss ran on the pool, verbatim, with the upstream gradient `g`.
LossAndGrad SerialDenseRecon(const SparseMatrix* proximity, const Matrix& pm,
                             double g) {
  LossAndGrad out;
  auto softplus = [](double x) {
    return x > 30.0 ? x : std::log1p(std::exp(x));
  };
  const int n = pm.rows(), k = pm.cols();
  {
    // Forward: stream row i of D = P P^T; targets come from the sparse A~ row.
    double loss = 0.0;
    std::vector<double> drow(n);
    for (int i = 0; i < n; ++i) {
      const double* pi = pm.RowPtr(i);
      for (int j = 0; j < n; ++j) {
        const double* pj = pm.RowPtr(j);
        double d = 0.0;
        for (int c = 0; c < k; ++c) d += pi[c] * pj[c];
        drow[j] = d;
        loss += softplus(d);  // BCE(sigmoid(d), t) = softplus(d) - t*d.
      }
      for (int64_t e = proximity->row_ptr()[i];
           e < proximity->row_ptr()[i + 1]; ++e) {
        loss -= proximity->values()[e] * drow[proximity->col_idx()[e]];
      }
    }
    out.loss = loss;
  }
  {
    Matrix dp(n, k);
    std::vector<double> coeff(n);
    for (int i = 0; i < n; ++i) {
      const double* pi = pm.RowPtr(i);
      // For ordered pair (i, j): dL/dd_ij = sigmoid(d_ij) - t_ij =: coeff_j,
      // and d_ij = p_i . p_j, so dP_i += coeff_j P_j and dP_j += coeff_j P_i.
      for (int j = 0; j < n; ++j) {
        const double* pj = pm.RowPtr(j);
        double d = 0.0;
        for (int c = 0; c < k; ++c) d += pi[c] * pj[c];
        coeff[j] = 1.0 / (1.0 + std::exp(-d));
      }
      for (int64_t e = proximity->row_ptr()[i];
           e < proximity->row_ptr()[i + 1]; ++e) {
        coeff[proximity->col_idx()[e]] -= proximity->values()[e];
      }
      double* di = dp.RowPtr(i);
      for (int j = 0; j < n; ++j) {
        const double w = g * coeff[j];
        if (w == 0.0) continue;
        const double* pj = pm.RowPtr(j);
        double* dj = dp.RowPtr(j);
        for (int c = 0; c < k; ++c) {
          di[c] += w * pj[c];
          dj[c] += w * pi[c];
        }
      }
    }
    out.grad = std::move(dp);
  }
  return out;
}

// A random nonnegative n x n matrix, row-normalized like AnECI's A~, so
// A~(i, j) != A~(j, i) in general.
SparseMatrix RowNormalizedProximity(int n, Rng& rng) {
  std::vector<Triplet> trips;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (r == c || rng.NextBool(0.3))
        trips.push_back({r, c, rng.Uniform(0.1, 1.0)});
  return SparseMatrix::FromTriplets(n, n, trips).RowNormalizedL1();
}

// An asymmetric pattern with every case the backward's column tile must
// handle: empty rows (r % 5 == 1), empty columns (c % 7 == 3, unless
// `full_row`), diagonal entries on even rows, and with `full_row` one row
// that stores every column.
SparseMatrix HandBuiltProximity(int n, bool full_row) {
  std::vector<Triplet> trips;
  for (int r = 0; r < n; ++r) {
    if (full_row && r == n / 2) {
      for (int c = 0; c < n; ++c) trips.push_back({r, c, 0.5 + 0.01 * c});
      continue;
    }
    if (r % 5 == 1) continue;
    for (int c : {r % 2 == 0 ? r : -1, (3 * r + 1) % n, (r * r + 2) % n}) {
      if (c < 0 || c % 7 == 3) continue;
      trips.push_back({r, c, 0.25 + 0.125 * (c % 4)});
    }
  }
  return SparseMatrix::FromTriplets(n, n, trips);
}

TEST(ParallelKernels, DenseReconMatchesSerialLoopBitwise) {
  const int kThreads[] = {1, 2, 7};
  Rng rng(120);
  // N around the backward's 16-row grain.
  for (int n : {1, 15, 16, 17, 100}) {
    const SparseMatrix proximities[] = {RowNormalizedProximity(n, rng),
                                        HandBuiltProximity(n, false),
                                        HandBuiltProximity(n, true)};
    for (const SparseMatrix& a : proximities) {
      for (int k : {1, 5, 16}) {
        Matrix pm = Matrix::RandomNormal(n, k, 1.5, rng);
        // Row 0 against itself takes softplus's linear branch (d = 1600);
        // against the last row sigmoid underflows to 0, so an unstored pair
        // has a zero weight even with a nonzero upstream gradient.
        for (int c = 0; c < k; ++c) {
          pm(0, c) = 40.0 / std::sqrt(k);
          if (n > 1) pm(n - 1, c) = -40.0 / std::sqrt(k);
        }
        for (double g : {0.37, 0.0}) {
          const LossAndGrad want = SerialDenseRecon(&a, pm, g);
          for (int threads : kThreads) {
            ScopedNumThreads guard(threads);
            auto p = ag::MakeParameter(pm);
            ag::VarPtr loss = DenseReconstructionLoss(&a, p);
            ag::Backward(ag::Scale(loss, g));
            const double got = loss->value()(0, 0);
            EXPECT_EQ(std::memcmp(&got, &want.loss, sizeof(double)), 0)
                << "n=" << n << " k=" << k << " g=" << g
                << " threads=" << threads;
            ExpectBitEqual(p->grad(), want.grad,
                           "DenseReconstructionLoss gradient");
          }
        }
      }
    }
  }
}

Graph AttributedSbm(uint64_t seed) {
  SbmOptions opt;
  opt.num_nodes = 120;
  opt.num_classes = 3;
  opt.num_edges = 360;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 20;
  opt.words_per_node = 6;
  opt.topic_words_per_class = 8;
  Rng rng(seed);
  return GenerateSbm(opt, rng);
}

// Every loss the epoch callback saw, including epochs later rolled back.
struct AneciRun {
  std::vector<double> seen;
  std::vector<double> history;
  Matrix p;
};

// Trains `cfg` for `epochs` with a forced NaN at epoch 7, which rolls back
// to the epoch-6 snapshot; with a `checkpoint_dir` it checkpoints every 3
// epochs, and resumes from there when `resume` is set.
AneciRun TrainWithFaults(AneciConfig cfg, int epochs,
                         const std::string& checkpoint_dir, bool resume) {
  cfg.hidden_dim = 16;
  cfg.embed_dim = 16;
  cfg.epochs = epochs;
  cfg.proximity.order = 2;
  cfg.watchdog.snapshot_every = 2;
  auto fired = std::make_shared<bool>(false);
  cfg.divergence_fault_hook = [fired](int epoch) {
    if (epoch != 7 || *fired) return false;
    *fired = true;
    return true;
  };
  if (!checkpoint_dir.empty()) {
    cfg.checkpoint_dir = checkpoint_dir;
    cfg.checkpoint_every = 3;
    if (resume) cfg.resume_from = checkpoint_dir;
  }
  AneciRun run;
  StatusOr<AneciResult> result = Aneci(cfg).TrainWithResilience(
      AttributedSbm(7), [&](const AneciEpochStats& s, const Matrix&,
                            const Matrix&) { run.seen.push_back(s.loss); });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return run;
  for (const AneciEpochStats& s : result.value().history)
    run.history.push_back(s.loss);
  run.p = result.value().p;
  return run;
}

void ExpectSameLosses(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << ": loss " << i << " differs";
}

// Twelve epochs of `cfg` at 1 thread, then at 4 and 7 threads, then killed
// after epoch 6 and resumed at 4 threads: every loss the trainer saw and
// the final P must match bit for bit.
void ExpectSameRunAcrossThreadsAndResume(const AneciConfig& cfg,
                                         const std::string& dir_name) {
  AneciRun serial;
  {
    ScopedNumThreads guard(1);
    serial = TrainWithFaults(cfg, 12, "", false);
  }
  // Epochs 0-6, the rolled-back retry from 6, then 7-11.
  ASSERT_EQ(serial.seen.size(), 13u);
  ASSERT_EQ(serial.history.size(), 12u);
  // The retried epoch 6 must score the restored epoch-6 target again.
  EXPECT_EQ(std::memcmp(&serial.seen[6], &serial.seen[7], sizeof(double)), 0);

  for (int threads : {4, 7}) {
    ScopedNumThreads guard(threads);
    const AneciRun run = TrainWithFaults(cfg, 12, "", false);
    const std::string what = "threads=" + std::to_string(threads);
    ExpectSameLosses(run.seen, serial.seen, what);
    ExpectBitEqual(run.p, serial.p, "AnECI P");
  }

  // Killed after epoch 6, resumed from its checkpoint: the stitched history
  // matches the uninterrupted run.
  const std::string dir = testing::TempDir() + "/" + dir_name;
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  for (const std::string& path :
       {CheckpointBinPath(dir), CheckpointBakPath(dir)}) {
    if (env->FileExists(path)) {
      ASSERT_TRUE(env->RemoveFile(path).ok());
    }
  }
  ScopedNumThreads guard(4);
  TrainWithFaults(cfg, 6, dir, false);
  const AneciRun resumed = TrainWithFaults(cfg, 12, dir, true);
  ExpectSameLosses(resumed.history, serial.history, "resumed");
  ExpectBitEqual(resumed.p, serial.p, "resumed AnECI P");
}

// Sampled mode with a resample at epoch 7: the rollback at 7 returns to
// the pairs drawn before the resample.
TEST(ParallelKernels, AneciSampledLossHistoryMatchesAcrossThreadsAndResume) {
  AneciConfig cfg;
  cfg.reconstruction = ReconstructionMode::kSampled;
  cfg.negatives_per_node = 3;
  cfg.resample_every = 7;
  ExpectSameRunAcrossThreadsAndResume(cfg, "pair_loss_resume");
}

// Dense mode with adversarial epochs 0, 3, 6 and 9, so the target switches
// between A~ and adv_proximity mid-run; the rollback at 7 re-runs the
// adversarial epoch 6 from the restored perturbation stream.
TEST(ParallelKernels, AneciDenseLossHistoryMatchesAcrossThreadsAndResume) {
  AneciConfig cfg;
  cfg.reconstruction = ReconstructionMode::kDense;
  cfg.adversarial.enabled = true;
  cfg.adversarial.budget = 0.1;
  cfg.adversarial.every = 3;
  ExpectSameRunAcrossThreadsAndResume(cfg, "dense_loss_resume");
}

}  // namespace
}  // namespace aneci
