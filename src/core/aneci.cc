#include "core/aneci.h"

#include <cmath>
#include <cstring>
#include <memory>

#include "attack/dice.h"
#include "attack/random_attack.h"
#include "autograd/ops.h"
#include "core/losses.h"
#include "core/train_loop.h"
#include "graph/modularity.h"
#include "util/check.h"
#include "util/trace.h"

namespace aneci {

using ag::VarPtr;

namespace {

void HashMix(uint64_t* h, uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

void HashMixDouble(uint64_t* h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  HashMix(h, bits);
}

/// Fingerprint of everything that shapes the training trajectory besides the
/// snapshotted state: structural config plus graph dimensions. Deliberately
/// excludes `epochs` (resuming with a larger budget extends a run) and
/// `seed` (the restored RNG state supersedes it).
uint64_t ResilienceFingerprint(const AneciConfig& cfg, const Graph& graph) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis.
  HashMix(&h, static_cast<uint64_t>(cfg.hidden_dim));
  HashMix(&h, static_cast<uint64_t>(cfg.embed_dim));
  HashMix(&h, static_cast<uint64_t>(cfg.proximity.order));
  HashMix(&h, static_cast<uint64_t>(cfg.proximity.weights.size()));
  for (double w : cfg.proximity.weights) HashMixDouble(&h, w);
  HashMixDouble(&h, cfg.proximity.drop_tol);
  HashMix(&h, cfg.proximity.add_self_loops ? 1 : 0);
  HashMixDouble(&h, cfg.beta1);
  HashMixDouble(&h, cfg.beta2);
  HashMix(&h, static_cast<uint64_t>(cfg.modularity_variant));
  HashMixDouble(&h, cfg.lr);
  HashMixDouble(&h, cfg.weight_decay);
  HashMixDouble(&h, cfg.leaky_relu_alpha);
  HashMix(&h, static_cast<uint64_t>(cfg.encoder));
  HashMix(&h, static_cast<uint64_t>(cfg.reconstruction));
  HashMix(&h, static_cast<uint64_t>(cfg.dense_threshold));
  HashMix(&h, static_cast<uint64_t>(cfg.negatives_per_node));
  HashMix(&h, static_cast<uint64_t>(cfg.resample_every));
  HashMix(&h, static_cast<uint64_t>(cfg.early_stop_patience));
  HashMixDouble(&h, cfg.early_stop_min_delta);
  if (cfg.adversarial.enabled) {
    // Mixed only when enabled so fingerprints of non-adversarial runs stay
    // compatible with their pre-adversarial-training snapshots.
    HashMix(&h, 0xADuLL);
    HashMixDouble(&h, cfg.adversarial.budget);
    HashMix(&h, static_cast<uint64_t>(cfg.adversarial.every));
    HashMix(&h, static_cast<uint64_t>(cfg.adversarial.kind));
    HashMix(&h, cfg.adversarial.seed);
  }
  HashMix(&h, static_cast<uint64_t>(graph.num_nodes()));
  HashMix(&h, static_cast<uint64_t>(graph.num_edges()));
  HashMix(&h, static_cast<uint64_t>(graph.attribute_dim()));
  return h;
}

}  // namespace

StatusOr<AneciResult> Aneci::TrainWithResilience(
    const Graph& graph, const EpochCallback& on_epoch) const {
  TraceSpan train_span("train/aneci");
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);
  Rng rng(config_.seed);
  const AdversarialTrainingOptions& adv = config_.adversarial;
  // Dedicated perturbation stream: enabling adversarial training must not
  // shift any draw of the main stream, and vice versa.
  Rng adv_rng(adv.seed);

  // Precompute the constant operators: GCN propagation S, sparse features X,
  // and the high-order proximity A~ (both the training target and the
  // modularity's structural prior).
  SparseMatrix s_norm, x_sparse, proximity;
  {
    TraceSpan setup_span("setup");  // Path: train/aneci/setup.
    s_norm = graph.NormalizedAdjacency();
    x_sparse = graph.Features();
    proximity = HighOrderProximity(graph, config_.proximity);
  }
  const double two_m_scale = proximity.SumAll();

  const bool dense_recon =
      config_.reconstruction == ReconstructionMode::kDense ||
      (config_.reconstruction == ReconstructionMode::kAuto &&
       n <= config_.dense_threshold);

  // Parameters of the two GCN layers (Eq. 2).
  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), config_.hidden_dim, rng));
  auto b1 = ag::MakeParameter(Matrix(1, config_.hidden_dim));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(config_.hidden_dim, config_.embed_dim, rng));
  auto b2 = ag::MakeParameter(Matrix(1, config_.embed_dim));

  auto forward = [&](const SparseMatrix* prop) {
    // H1 = LeakyReLU(S X W1 + b1); Z = S H1 W2 + b2.
    VarPtr xw = ag::SpMM(&x_sparse, w1);
    VarPtr h1 = ag::LeakyRelu(ag::AddRowBroadcast(ag::SpMM(prop, xw), b1),
                              config_.leaky_relu_alpha);
    VarPtr z = ag::AddRowBroadcast(ag::SpMM(prop, ag::MatMul(h1, w2)), b2);
    return z;
  };
  const bool sampled_encoder =
      config_.encoder == EncoderMode::kSampledNeighbors;

  // Freshly sampled (or restored) pairs wait in `pairs` until the top of
  // the next epoch moves them into the indexed `pair_set`, so the index is
  // built once per sample and set-up does not pay for it. Exactly one of
  // the two holds the current pairs.
  std::vector<ag::PairTarget> pairs;
  std::shared_ptr<const ag::PairSet> pair_set;
  if (!dense_recon)
    pairs = SampleReconstructionPairs(proximity, config_.negatives_per_node, rng);

  TrainLoop::StateHooks state;
  state.save = [&](TrainingCheckpoint* c) {
    PackRngState(adv_rng.state(), c->adv_rng_state, &c->adv_rng_has_gauss,
                 &c->adv_rng_gauss);
    const std::vector<ag::PairTarget>& current =
        pair_set ? pair_set->pairs() : pairs;
    c->pairs.reserve(current.size());
    for (const ag::PairTarget& p : current)
      c->pairs.push_back({p.u, p.v, p.target});
  };
  state.restore = [&](const TrainingCheckpoint& c) {
    adv_rng.set_state(UnpackRngState(c.adv_rng_state, c.adv_rng_has_gauss,
                                     c.adv_rng_gauss));
    pairs.clear();
    pairs.reserve(c.pairs.size());
    for (const PairBlob& p : c.pairs) pairs.push_back({p.u, p.v, p.target});
    pair_set.reset();
  };

  TrainLoop loop({w1, b1, w2, b2},
                 {.epochs = config_.epochs,
                  .adam = {.lr = config_.lr,
                           .weight_decay = config_.weight_decay},
                  .rng = &rng,
                  .state = std::move(state),
                  .watchdog = config_.watchdog,
                  .early_stop_patience = config_.early_stop_patience,
                  .early_stop_min_delta = config_.early_stop_min_delta,
                  .checkpoint_dir = config_.checkpoint_dir,
                  .checkpoint_every = config_.checkpoint_every,
                  .resume_from = config_.resume_from,
                  .fingerprint = ResilienceFingerprint(config_, graph),
                  .env = config_.env,
                  .divergence_fault_hook = config_.divergence_fault_hook});

  // Per-epoch operators the loss graph points into; they must outlive the
  // loop's Backward, so they live out here rather than in the closure.
  SparseMatrix s_epoch, adv_proximity;
  VarPtr z, p;  // This epoch's embeddings and memberships, for on_epoch.
  auto loss_fn = [&](int epoch) {
    if (!dense_recon && config_.resample_every > 0 && epoch > 0 &&
        epoch % config_.resample_every == 0) {
      pairs =
          SampleReconstructionPairs(proximity, config_.negatives_per_node, rng);
      pair_set.reset();
    }
    if (!dense_recon && !pair_set)
      pair_set = ag::PairSet::Build(std::move(pairs), n);

    // Adversarial inner step: rebuild the proximity target from a budgeted
    // edge-flip perturbation drawn from the dedicated stream. The encoder
    // still propagates over the clean operator S — only the supervision
    // target moves — so the model learns memberships that survive the
    // perturbation family. All quantities are pure functions of the
    // adv_rng state captured at the epoch boundary, which makes the step
    // both watchdog-rollback-safe and checkpoint-resumable.
    const bool adv_epoch =
        adv.enabled && (adv.every <= 1 || epoch % adv.every == 0);
    const SparseMatrix* target = &proximity;
    double target_scale = two_m_scale;
    std::shared_ptr<const ag::PairSet> epoch_pairs = pair_set;
    if (adv_epoch) {
      const int flips = static_cast<int>(
          std::lround(adv.budget * graph.num_edges()));
      Graph perturbed;
      if (adv.kind == AdversarialTrainingOptions::Kind::kDice &&
          graph.has_labels()) {
        DiceOptions dice;
        dice.budget = adv.budget;
        perturbed = DiceAttack(graph, dice, adv_rng).attacked;
      } else {
        perturbed = BudgetedEdgeFlips(graph, flips, adv_rng);
      }
      adv_proximity = HighOrderProximity(perturbed, config_.proximity);
      target = &adv_proximity;
      target_scale = adv_proximity.SumAll();
      if (!dense_recon) {
        epoch_pairs = ag::PairSet::Build(
            SampleReconstructionPairs(adv_proximity,
                                      config_.negatives_per_node, adv_rng),
            n);
      }
    }

    const SparseMatrix* prop = &s_norm;
    if (sampled_encoder) {
      s_epoch = SampleSageOperator(graph, config_.sage, rng);
      prop = &s_epoch;
    }
    z = forward(prop);
    p = ag::RowSoftmax(z);
    VarPtr q = config_.modularity_variant == ModularityVariant::kProduct
                   ? GeneralizedModularityLoss(target, p)
                   : GeneralizedModularityMinLoss(target, p);
    VarPtr recon = dense_recon ? DenseReconstructionLoss(target, p)
                               : SampledReconstructionLoss(p, epoch_pairs);
    // Balance the two objectives at O(N) magnitude each: Q~ carries a
    // 1/(2M~) normalisation that would otherwise make its gradient O(1/N^2)
    // against the pair-summed reconstruction, so the loss uses the
    // un-normalised trace form (2M~ * Q~) and the per-pair mean of L_R
    // scaled back to N.
    const double recon_pairs =
        dense_recon ? static_cast<double>(n) * n
                    : static_cast<double>(epoch_pairs->size());
    EpochLoss out =
        ag::Add(ag::Scale(q, -config_.beta1 * target_scale),
                ag::Scale(recon, config_.beta2 * n / recon_pairs));
    out.community = true;
    out.modularity = q->value()(0, 0);
    out.rigidity = Rigidity(p->value());
    return out;
  };
  // Drops this epoch's graph once observed, so it is not held while the
  // next epoch builds its own.
  auto after_epoch = [&](const AneciEpochStats& stats) {
    if (on_epoch) on_epoch(stats, z->value(), p->value());
    z.reset();
    p.reset();
  };
  ANECI_RETURN_IF_ERROR(loop.Run(loss_fn, after_epoch));

  // Final forward pass with trained weights; inference always uses the
  // deterministic full-graph operator.
  TraceSpan final_span("final_forward");  // Path: train/aneci/final_forward.
  AneciResult result;
  result.z = forward(&s_norm)->value();
  result.p = RowSoftmax(result.z);
  result.history = loop.history();
  result.resumed_from_epoch = loop.resumed_from_epoch();
  result.watchdog_rollbacks = loop.rollbacks();
  result.final_lr = loop.lr();
  return result;
}

AneciResult Aneci::Train(const Graph& graph,
                         const EpochCallback& on_epoch) const {
  StatusOr<AneciResult> result = TrainWithResilience(graph, on_epoch);
  ANECI_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace aneci
