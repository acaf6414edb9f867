// Binary training-snapshot format with end-to-end integrity checking
// (docs/robustness.md has the byte-level spec). A checkpoint captures
// everything the training loop needs to continue bit-identically after a
// crash: model parameters, Adam moments and step, the RNG state, sampled
// reconstruction pairs, early-stopping counters, watchdog state, and the
// epoch history.
//
// File layout:
//   bytes 0..3   magic "ANCK"
//   bytes 4..7   u32 format version (currently 2; v1 still loads — it lacks
//                only the trailing adversarial-RNG block, which is zeroed)
//   bytes 8..15  u64 payload size in bytes
//   bytes 16..19 u32 CRC-32 (IEEE 802.3) of the payload
//   bytes 20..   payload (fixed little-endian field order, IEEE-754 doubles)
//
// Loading verifies magic, version, declared size and CRC before any field is
// interpreted, so truncation and bit-flips are rejected with a precise
// Status instead of being half-parsed. Writes go through
// Env::WriteFileAtomic, so a crash mid-save never clobbers the previous
// snapshot.
//
// This header lives in util (below linalg), so tensors are carried as plain
// {rows, cols, data} blobs; trainers convert to/from their matrix type.
#ifndef ANECI_UTIL_CHECKPOINT_H_
#define ANECI_UTIL_CHECKPOINT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace aneci {

/// CRC-32 (reflected, polynomial 0xEDB88320) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// A dense row-major tensor without the linalg dependency.
struct TensorBlob {
  int32_t rows = 0;
  int32_t cols = 0;
  std::vector<double> data;  ///< rows * cols entries.
};

/// A sampled reconstruction pair (mirrors ag::PairTarget).
struct PairBlob {
  int32_t u = 0;
  int32_t v = 0;
  double target = 0.0;
};

/// One epoch of telemetry (core/aneci.h aliases this as AneciEpochStats).
struct EpochStatBlob {
  int32_t epoch = 0;
  double loss = 0.0;
  double modularity = 0.0;
  double rigidity = 0.0;
};

struct TrainingCheckpoint {
  /// Hash of the structural config + graph shape; a resume against a
  /// different configuration is rejected instead of silently diverging.
  uint64_t config_fingerprint = 0;

  int32_t next_epoch = 0;  ///< First epoch the resumed loop will run.
  int32_t adam_step = 0;   ///< Adam's bias-correction step counter t.
  double lr = 0.0;         ///< Current learning rate (watchdog may decay it).

  // Early-stopping state.
  double best_mod_loss = 0.0;
  int32_t since_best = 0;

  // Watchdog state.
  int32_t watchdog_rollbacks = 0;
  double watchdog_best_abs_loss = 0.0;

  // xoshiro256** state plus the cached-Gaussian pair.
  uint64_t rng_state[4] = {0, 0, 0, 0};
  uint8_t rng_has_gauss = 0;
  double rng_gauss = 0.0;

  // Adversarial-training perturbation stream (format v2; zeroed when loading
  // a v1 file, which can only have been written by a non-adversarial run).
  uint64_t adv_rng_state[4] = {0, 0, 0, 0};
  uint8_t adv_rng_has_gauss = 0;
  double adv_rng_gauss = 0.0;

  std::vector<TensorBlob> params;
  std::vector<TensorBlob> opt_m;
  std::vector<TensorBlob> opt_v;
  std::vector<PairBlob> pairs;
  std::vector<EpochStatBlob> history;
};

/// Copies an RNG state into one of the checkpoint's flat stream triples
/// (rng_* or adv_rng_*), and back.
inline void PackRngState(const Rng::State& state, uint64_t* words,
                         uint8_t* has_gauss, double* gauss) {
  std::copy(state.s, state.s + 4, words);
  *has_gauss = state.has_gauss ? 1 : 0;
  *gauss = state.gauss;
}
inline Rng::State UnpackRngState(const uint64_t* words, uint8_t has_gauss,
                                 double gauss) {
  Rng::State state;
  std::copy(words, words + 4, state.s);
  state.has_gauss = has_gauss != 0;
  state.gauss = gauss;
  return state;
}

/// Serialises to the full file byte string (header + CRC + payload).
std::string SerializeCheckpoint(const TrainingCheckpoint& checkpoint);

/// Validates and decodes file bytes. `origin` names the source in errors.
StatusOr<TrainingCheckpoint> ParseCheckpoint(std::string_view bytes,
                                             const std::string& origin);

Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                      const std::string& path, Env* env = nullptr);

StatusOr<TrainingCheckpoint> LoadCheckpoint(const std::string& path,
                                            Env* env = nullptr);

/// Two-deep rotation inside `dir`: the previous `checkpoint.bin` is renamed
/// to `checkpoint.bak` before the new snapshot is atomically written, so one
/// valid snapshot survives any single corruption or mid-save crash.
Status SaveRotatingCheckpoint(const TrainingCheckpoint& checkpoint,
                              const std::string& dir, Env* env = nullptr);

/// Loads `dir`/checkpoint.bin, falling back to `dir`/checkpoint.bak when the
/// newest snapshot is missing or corrupt. NotFound when neither exists; the
/// primary's corruption error when both are unreadable. `loaded_path`
/// (optional) receives the file actually used.
StatusOr<TrainingCheckpoint> LoadLatestCheckpoint(
    const std::string& dir, Env* env = nullptr,
    std::string* loaded_path = nullptr);

/// File names used by the rotation scheme.
std::string CheckpointBinPath(const std::string& dir);
std::string CheckpointBakPath(const std::string& dir);

}  // namespace aneci

#endif  // ANECI_UTIL_CHECKPOINT_H_
