//===- Checkpoint.h - Pipeline checkpoint/resume -----------------*- C++ -*-=//
//
// Serializes everything the four-stage training pipeline needs to restart
// mid-stage and produce artifacts identical to an uninterrupted run: the
// per-model parameter vectors, the in-progress GRPO trainer's resumable
// state (step counter + RNG state + EMA smoother), the per-stage logs, and
// the harvested diagnostic-augmented sample set (as indices + action codes,
// so it can be re-bound to the caller's Dataset on load).
//
// The format is line-oriented text with every double stored as its IEEE-754
// bit pattern in hex, so a save/load round trip is bit-exact. Writes are
// atomic and durable: under an exclusive flock on the "<path>.lock"
// sidecar, writeFileAtomic (support/AtomicFile.h) writes a unique temporary
// file, fsyncs it, renames it over the destination and fsyncs the
// directory — a crash mid-write leaves the previous checkpoint intact.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_CHECKPOINT_H
#define VERIOPT_PIPELINE_CHECKPOINT_H

#include "rl/Trainer.h"

#include <string>
#include <vector>

namespace veriopt {

/// One harvested SFT example, decoupled from Sample pointers: SampleIdx
/// indexes the training split the pipeline was launched with.
struct AugmentedRecord {
  unsigned SampleIdx = 0;
  std::vector<unsigned> TargetActions; ///< Action codes, ends with Stop
  bool IsCorrection = false;
  std::vector<unsigned> AttemptActions;
  unsigned DiagClass = 0;
};

/// Stage encoding: 0 = stage-1 GRPO in progress, 1 = stage-2 GRPO in
/// progress (warm-up SFT already folded into WarmUpParams), 2 = stage-3
/// GRPO in progress, 3 = pipeline complete.
struct PipelineCheckpoint {
  unsigned Version = 1;
  uint64_t Seed = 0;     ///< PipelineOptions::Seed, verified on resume
  unsigned StageIdx = 0;
  GRPOTrainerState Trainer; ///< state of the in-progress stage's trainer

  // Parameter vectors; empty = that model does not exist yet.
  std::vector<double> ModelZeroParams;
  std::vector<double> WarmUpParams;
  std::vector<double> CorrectnessParams;
  std::vector<double> LatencyParams;

  std::vector<TrainLogEntry> Stage1Log, Stage2Log, Stage3Log;

  std::vector<AugmentedRecord> Augmented;
  unsigned CorrectionSamples = 0;
  unsigned FirstTimeSamples = 0;
};

/// Atomically and durably write \p CP to \p Path (writeFileAtomic under the
/// "<path>.lock" flock: unique temporary, fsync, rename, directory fsync).
/// Returns false on I/O failure; callers must treat false as "previous
/// checkpoint still stands" and keep training. Tests fail the write through
/// a FaultyIoEnv (support/IoEnv.h).
bool saveCheckpoint(const std::string &Path, const PipelineCheckpoint &CP);

/// Load \p Path into \p CP. Returns false (leaving \p CP default) when the
/// file is missing, truncated, or not a compatible checkpoint.
bool loadCheckpoint(const std::string &Path, PipelineCheckpoint &CP);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_CHECKPOINT_H
