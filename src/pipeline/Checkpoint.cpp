//===- Checkpoint.cpp - Pipeline checkpoint/resume ----------------------------//

#include "pipeline/Checkpoint.h"

#include "support/AtomicFile.h"
#include "support/FileLock.h"
#include "trace/Json.h"

#include <fstream>
#include <sstream>

namespace veriopt {

namespace {

void writeParams(std::ostream &OS, const char *Name,
                 const std::vector<double> &P) {
  OS << "model " << Name << ' ' << P.size();
  for (double V : P)
    OS << ' ' << hexDouble(V);
  OS << '\n';
}

bool readParams(std::istream &IS, const char *Name, std::vector<double> &P) {
  std::string Kw, Nm;
  size_t N;
  if (!(IS >> Kw >> Nm >> N) || Kw != "model" || Nm != Name)
    return false;
  P.resize(N);
  std::string Tok;
  for (size_t I = 0; I < N; ++I)
    if (!(IS >> Tok) || !parseHexDouble(Tok, P[I]))
      return false;
  return true;
}

void writeLog(std::ostream &OS, unsigned Which,
              const std::vector<TrainLogEntry> &Log) {
  OS << "log " << Which << ' ' << Log.size() << '\n';
  for (const TrainLogEntry &E : Log) {
    OS << E.Step << ' ' << hexDouble(E.MeanReward) << ' ' << hexDouble(E.EMAReward)
       << ' ' << hexDouble(E.EquivalentRate) << ' ' << hexDouble(E.CopyRate) << ' '
       << hexDouble(E.GradNorm) << ' ' << hexDouble(E.ScoreWallMs) << ' '
       << hexDouble(E.CacheHitRate) << ' ' << E.FalsifyWins << ' '
       << E.SolverConflicts << ' ' << E.RetryEscalations << ' '
       << E.TerminalInconclusive << ' ' << E.MaxRetryTier << '\n';
  }
}

bool readLog(std::istream &IS, unsigned Which,
             std::vector<TrainLogEntry> &Log) {
  std::string Kw;
  unsigned W;
  size_t N;
  if (!(IS >> Kw >> W >> N) || Kw != "log" || W != Which)
    return false;
  Log.resize(N);
  for (TrainLogEntry &E : Log) {
    std::string D[7];
    if (!(IS >> E.Step >> D[0] >> D[1] >> D[2] >> D[3] >> D[4] >> D[5] >>
          D[6] >> E.FalsifyWins >> E.SolverConflicts >> E.RetryEscalations >>
          E.TerminalInconclusive >> E.MaxRetryTier))
      return false;
    if (!parseHexDouble(D[0], E.MeanReward) || !parseHexDouble(D[1], E.EMAReward) ||
        !parseHexDouble(D[2], E.EquivalentRate) || !parseHexDouble(D[3], E.CopyRate) ||
        !parseHexDouble(D[4], E.GradNorm) || !parseHexDouble(D[5], E.ScoreWallMs) ||
        !parseHexDouble(D[6], E.CacheHitRate))
      return false;
  }
  return true;
}

void writeActions(std::ostream &OS, const std::vector<unsigned> &A) {
  OS << ' ' << A.size();
  for (unsigned V : A)
    OS << ' ' << V;
}

bool readActions(std::istream &IS, std::vector<unsigned> &A) {
  size_t N;
  if (!(IS >> N))
    return false;
  A.resize(N);
  for (unsigned &V : A)
    if (!(IS >> V))
      return false;
  return true;
}

} // namespace

bool saveCheckpoint(const std::string &Path, const PipelineCheckpoint &CP) {
  std::ostringstream OS;
  OS << "veriopt-ckpt " << CP.Version << '\n';
  OS << "seed " << CP.Seed << '\n';
  OS << "stage " << CP.StageIdx << '\n';
  OS << "trainer " << CP.Trainer.StepCount << ' ' << CP.Trainer.RNGState
     << ' ' << hexDouble(CP.Trainer.EMAValue) << ' '
     << (CP.Trainer.EMAPrimed ? 1 : 0) << '\n';
  writeParams(OS, "zero", CP.ModelZeroParams);
  writeParams(OS, "warmup", CP.WarmUpParams);
  writeParams(OS, "correctness", CP.CorrectnessParams);
  writeParams(OS, "latency", CP.LatencyParams);
  writeLog(OS, 1, CP.Stage1Log);
  writeLog(OS, 2, CP.Stage2Log);
  writeLog(OS, 3, CP.Stage3Log);
  OS << "aug " << CP.Augmented.size() << '\n';
  for (const AugmentedRecord &R : CP.Augmented) {
    OS << R.SampleIdx << ' ' << (R.IsCorrection ? 1 : 0) << ' '
       << R.DiagClass;
    writeActions(OS, R.TargetActions);
    writeActions(OS, R.AttemptActions);
    OS << '\n';
  }
  OS << "counts " << CP.CorrectionSamples << ' ' << CP.FirstTimeSamples
     << '\n';
  OS << "end\n";

  // Atomic + durable write-then-rename (support/AtomicFile.h): a crash —
  // even a power loss — leaves either the old checkpoint or the complete,
  // fsync'ed new one, never a torn or renamed-but-empty file. The sidecar
  // flock serializes concurrent writers (two supervised runs pointed at
  // one checkpoint path) so their ".tmp" staging files cannot collide; the
  // sidecar survives the rename, unlike a lock on the checkpoint itself.
  FileLock Lock;
  if (!Lock.lock(Path + ".lock", FileLock::Mode::Exclusive))
    return false;
  return writeFileAtomic(Path, OS.str());
}

bool loadCheckpoint(const std::string &Path, PipelineCheckpoint &CP) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return false;
  std::string Magic;
  PipelineCheckpoint Out;
  if (!(F >> Magic >> Out.Version) || Magic != "veriopt-ckpt" ||
      Out.Version != 1)
    return false;
  std::string Kw, EmaHex;
  unsigned Primed;
  if (!(F >> Kw >> Out.Seed) || Kw != "seed")
    return false;
  if (!(F >> Kw >> Out.StageIdx) || Kw != "stage")
    return false;
  if (!(F >> Kw >> Out.Trainer.StepCount >> Out.Trainer.RNGState >> EmaHex >>
        Primed) ||
      Kw != "trainer" || !parseHexDouble(EmaHex, Out.Trainer.EMAValue))
    return false;
  Out.Trainer.EMAPrimed = Primed != 0;
  if (!readParams(F, "zero", Out.ModelZeroParams) ||
      !readParams(F, "warmup", Out.WarmUpParams) ||
      !readParams(F, "correctness", Out.CorrectnessParams) ||
      !readParams(F, "latency", Out.LatencyParams))
    return false;
  if (!readLog(F, 1, Out.Stage1Log) || !readLog(F, 2, Out.Stage2Log) ||
      !readLog(F, 3, Out.Stage3Log))
    return false;
  size_t NAug;
  if (!(F >> Kw >> NAug) || Kw != "aug")
    return false;
  Out.Augmented.resize(NAug);
  for (AugmentedRecord &R : Out.Augmented) {
    unsigned Corr;
    if (!(F >> R.SampleIdx >> Corr >> R.DiagClass) ||
        !readActions(F, R.TargetActions) || !readActions(F, R.AttemptActions))
      return false;
    R.IsCorrection = Corr != 0;
  }
  if (!(F >> Kw >> Out.CorrectionSamples >> Out.FirstTimeSamples) ||
      Kw != "counts")
    return false;
  if (!(F >> Kw) || Kw != "end")
    return false;
  CP = std::move(Out);
  return true;
}

} // namespace veriopt
