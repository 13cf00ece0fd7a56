//===- Pins.h - Shared inputs of the bit-identity pins -----------*- C++ -*-=//
//
// The printer, policy and verify-cache tests each pin a 64-bit FNV-1a
// digest of what the text layer emits for a fixed input set: a small
// seeded corpus and a fixed set of policy decodes over it. The expected
// digests were recorded before the text layer was optimized, so a refactor
// that keeps every printed byte, decode and cache key keeps every digest,
// and one that moves a single byte fails the pin that covers it.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TESTS_ORACLE_PINS_H
#define VERIOPT_TESTS_ORACLE_PINS_H

#include "data/Dataset.h"
#include "model/Policy.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace veriopt {
namespace pins {

/// FNV-1a over a byte stream. Integers are fed little-endian and strings
/// length-first, so the digest does not depend on the host's byte order
/// and two adjacent strings cannot trade bytes.
struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ULL;

  void addByte(unsigned char B) { H = (H ^ B) * 0x100000001b3ULL; }
  void addU64(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I)
      addByte(static_cast<unsigned char>(V >> (8 * I)));
  }
  void addStr(const std::string &S) {
    addU64(S.size());
    for (char C : S)
      addByte(static_cast<unsigned char>(C));
  }
  void addDoubleBits(double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof Bits);
    addU64(Bits);
  }
};

/// The seeded corpus the pins print, decode and key.
inline const Dataset &corpus() {
  static const Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 12;
    O.ValidCount = 0;
    O.Seed = 19;
    return buildDataset(O);
  }();
  return DS;
}

struct Decode {
  const Sample *S;
  Completion C;
};

/// Which generate overload decodes() calls: the one that prints the prompt,
/// the one that takes its text (Sample::SrcText), or the one that takes a
/// PromptRecord, with one record per (model, sample) kept across all its
/// draws in both modes, so repeated decisions are served from the record.
enum class DecodePath { Printed, GivenText, KeptRecord };

/// Every corpus sample decoded by two presets with different InitSeed and
/// capacity-gate percentages (presetQwen7B's emergent families fire at
/// 40 %), in both prompt modes, once greedily and three times sampled from
/// a seeded stream, through \p Path.
inline std::vector<Decode> decodes(DecodePath Path = DecodePath::Printed) {
  std::vector<Decode> Out;
  for (const ModelConfig &Cfg : {presetQwen3B(), presetQwen7B()}) {
    RewritePolicyModel Model(Cfg);
    std::map<const Sample *, PromptRecord> Records;
    for (PromptMode Mode : {PromptMode::Generic, PromptMode::Augmented}) {
      RNG R(Cfg.InitSeed * 1000 + static_cast<unsigned>(Mode));
      auto decode = [&](const Sample &S, bool Greedy) {
        switch (Path) {
        case DecodePath::Printed:
          return Model.generate(*S.source(), Mode, R, Greedy);
        case DecodePath::GivenText:
          return Model.generate(*S.source(), S.SrcText, Mode, R, Greedy);
        case DecodePath::KeptRecord:
          break;
        }
        PromptRecord &P =
            Records.try_emplace(&S, Model, *S.source(), S.SrcText)
                .first->second;
        return Model.generate(P, Mode, R, Greedy);
      };
      for (const Sample &S : corpus().Train) {
        Out.push_back({&S, decode(S, /*Greedy=*/true)});
        for (int Draw = 0; Draw < 3; ++Draw)
          Out.push_back({&S, decode(S, /*Greedy=*/false)});
      }
    }
  }
  return Out;
}

} // namespace pins
} // namespace veriopt

#endif // VERIOPT_TESTS_ORACLE_PINS_H
