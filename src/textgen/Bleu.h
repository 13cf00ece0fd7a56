//===- Bleu.h - IR tokenization and BLEU similarity --------------*- C++ -*-=//
//
// BLEU-4 with brevity penalty (Papineni et al.), over a whitespace/
// punctuation-aware IR tokenizer. Used as the b_i shaping term of the
// paper's reward Eq. (1) and as the diagnostic-similarity term of the CoT
// reward Eq. (2).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TEXTGEN_BLEU_H
#define VERIOPT_TEXTGEN_BLEU_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace veriopt {

/// Split text into tokens: identifiers/numbers stay whole, sigils (%, @)
/// stay attached to their identifier, punctuation tokens stand alone.
std::vector<std::string> tokenizeIR(const std::string &Text);

/// tokenizeIR(Text).size(), without building the tokens.
size_t countIRTokens(const std::string &Text);

/// BLEU-N (default 4) of \p Candidate against \p Reference over tokens,
/// with the standard brevity penalty and +1 smoothing on higher n-grams.
/// Returns a value in [0, 1]; identical token streams score 1.
double bleu(const std::vector<std::string> &Reference,
            const std::vector<std::string> &Candidate, unsigned MaxN = 4);

/// Convenience: tokenize both texts, then score.
double bleuText(const std::string &Reference, const std::string &Candidate,
                unsigned MaxN = 4);

/// A reference text tokenized and interned once, for scoring many
/// candidates against it: score(C, N) is bit-identical to
/// bleuText(Reference, C, N), but tokenizes only the candidate.
class BleuReference {
public:
  explicit BleuReference(const std::string &Reference);
  double score(const std::string &Candidate, unsigned MaxN = 4) const;

private:
  struct TokenHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  /// Distinct reference tokens, numbered in order of first appearance.
  std::unordered_map<std::string, uint32_t, TokenHash, std::equal_to<>>
      Vocab;
  std::vector<uint32_t> Ids; ///< the reference as token ids
};

} // namespace veriopt

#endif // VERIOPT_TEXTGEN_BLEU_H
