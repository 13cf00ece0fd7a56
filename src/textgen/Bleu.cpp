//===- Bleu.cpp - IR tokenization and BLEU similarity --------------------------//

#include "textgen/Bleu.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>

namespace veriopt {

namespace {

/// Call \p Emit(Begin, Length) for each token of \p Text, in order: the one
/// tokenizer behind tokenizeIR, countIRTokens and BleuReference.
template <typename EmitFn>
void forEachIRToken(const std::string &Text, EmitFn &&Emit) {
  size_t I = 0, N = Text.size();
  auto isIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '$';
  };
  while (I < N) {
    char C = Text[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    size_t Start = I;
    if (C == '%' || C == '@' || C == '#' || C == '!') {
      ++I;
      while (I < N && isIdent(Text[I]))
        ++I;
    } else if (C == '-' && I + 1 < N &&
               std::isdigit(static_cast<unsigned char>(Text[I + 1]))) {
      ++I;
      while (I < N && std::isdigit(static_cast<unsigned char>(Text[I])))
        ++I;
    } else if (isIdent(C)) {
      while (I < N && isIdent(Text[I]))
        ++I;
    } else {
      ++I;
    }
    Emit(Start, I - Start);
  }
}

} // namespace

std::vector<std::string> tokenizeIR(const std::string &Text) {
  std::vector<std::string> Out;
  forEachIRToken(Text, [&](size_t Begin, size_t Len) {
    Out.push_back(Text.substr(Begin, Len));
  });
  return Out;
}

size_t countIRTokens(const std::string &Text) {
  size_t Count = 0;
  forEachIRToken(Text, [&](size_t, size_t) { ++Count; });
  return Count;
}

namespace {

/// Clipped n-gram matches of Cand against Ref, where each n-gram is packed
/// into one uint64 (16 bits per interned token id). Requires vocab < 2^16
/// and N <= 4.
int clippedMatchesPacked(const std::vector<uint32_t> &Ref,
                         const std::vector<uint32_t> &Cand, unsigned N) {
  std::unordered_map<uint64_t, int> RefCounts;
  RefCounts.reserve(Ref.size());
  uint64_t Mask = N >= 4 ? ~uint64_t(0) : ((uint64_t(1) << (16 * N)) - 1);
  if (Ref.size() >= N) {
    uint64_t G = 0;
    for (size_t I = 0; I < Ref.size(); ++I) {
      G = ((G << 16) | Ref[I]) & Mask;
      if (I + 1 >= N)
        ++RefCounts[G];
    }
  }
  int Matched = 0;
  if (Cand.size() >= N) {
    uint64_t G = 0;
    for (size_t I = 0; I < Cand.size(); ++I) {
      G = ((G << 16) | Cand[I]) & Mask;
      if (I + 1 < N)
        continue;
      auto It = RefCounts.find(G);
      if (It != RefCounts.end() && It->second > 0) {
        --It->second; // clip: each reference occurrence matches once
        ++Matched;
      }
    }
  }
  return Matched;
}

/// Exact fallback for pathologically large vocabularies (>= 2^16 distinct
/// tokens) or N > 4, where n-grams no longer pack into a uint64. Ids are
/// equal exactly when tokens are, so the counts are those of the tokens.
int clippedMatchesGeneric(const std::vector<uint32_t> &Ref,
                          const std::vector<uint32_t> &Cand, unsigned N) {
  std::map<std::vector<uint32_t>, int> RefCounts;
  if (Ref.size() >= N)
    for (size_t I = 0; I + N <= Ref.size(); ++I)
      ++RefCounts[std::vector<uint32_t>(Ref.begin() + I, Ref.begin() + I + N)];
  int Matched = 0;
  if (Cand.size() >= N)
    for (size_t I = 0; I + N <= Cand.size(); ++I) {
      auto It = RefCounts.find(
          std::vector<uint32_t>(Cand.begin() + I, Cand.begin() + I + N));
      if (It != RefCounts.end() && It->second > 0) {
        --It->second;
        ++Matched;
      }
    }
  return Matched;
}

/// BLEU over token ids interned against one vocabulary of \p VocabSize
/// distinct tokens.
double bleuIds(const std::vector<uint32_t> &Ref,
               const std::vector<uint32_t> &Cand, size_t VocabSize,
               unsigned MaxN) {
  if (Cand.empty())
    return Ref.empty() ? 1.0 : 0.0;
  if (Ref.empty())
    return 0.0;
  bool Packable = VocabSize < (1u << 16);

  double LogSum = 0;
  for (unsigned N = 1; N <= MaxN; ++N) {
    int Matched = Packable && N <= 4 ? clippedMatchesPacked(Ref, Cand, N)
                                     : clippedMatchesGeneric(Ref, Cand, N);
    int Total = Cand.size() >= N ? static_cast<int>(Cand.size() - N + 1) : 0;
    double Precision;
    if (N == 1) {
      if (Total == 0 || Matched == 0)
        return 0.0; // no unigram overlap: score 0
      Precision = static_cast<double>(Matched) / Total;
    } else {
      // +1 smoothing keeps short sequences from collapsing to zero.
      Precision = (Matched + 1.0) / (Total + 1.0);
    }
    LogSum += std::log(Precision);
  }
  double GeoMean = std::exp(LogSum / MaxN);

  // Brevity penalty.
  double R = static_cast<double>(Ref.size());
  double C = static_cast<double>(Cand.size());
  double BP = C >= R ? 1.0 : std::exp(1.0 - R / C);
  return std::clamp(GeoMean * BP, 0.0, 1.0);
}

/// Intern a token stream against a shared vocabulary, so n-grams can be
/// compared as integers instead of string vectors.
std::vector<uint32_t>
internTokens(const std::vector<std::string> &Tokens,
             std::unordered_map<std::string, uint32_t> &Vocab) {
  std::vector<uint32_t> Ids;
  Ids.reserve(Tokens.size());
  for (const std::string &T : Tokens)
    Ids.push_back(
        Vocab.emplace(T, static_cast<uint32_t>(Vocab.size())).first->second);
  return Ids;
}

} // namespace

double bleu(const std::vector<std::string> &Reference,
            const std::vector<std::string> &Candidate, unsigned MaxN) {
  std::unordered_map<std::string, uint32_t> Vocab;
  std::vector<uint32_t> RefIds = internTokens(Reference, Vocab);
  std::vector<uint32_t> CandIds = internTokens(Candidate, Vocab);
  return bleuIds(RefIds, CandIds, Vocab.size(), MaxN);
}

double bleuText(const std::string &Reference, const std::string &Candidate,
                unsigned MaxN) {
  return bleu(tokenizeIR(Reference), tokenizeIR(Candidate), MaxN);
}

BleuReference::BleuReference(const std::string &Reference) {
  forEachIRToken(Reference, [&](size_t Begin, size_t Len) {
    Ids.push_back(Vocab
                      .emplace(Reference.substr(Begin, Len),
                               static_cast<uint32_t>(Vocab.size()))
                      .first->second);
  });
}

double BleuReference::score(const std::string &Candidate,
                            unsigned MaxN) const {
  // Candidate tokens the reference lacks continue the numbering, as
  // interning the candidate after the reference into one vocabulary does.
  std::unordered_map<std::string_view, uint32_t> Extra;
  std::vector<uint32_t> CandIds;
  forEachIRToken(Candidate, [&](size_t Begin, size_t Len) {
    std::string_view Tok(Candidate.data() + Begin, Len);
    auto It = Vocab.find(Tok);
    CandIds.push_back(
        It != Vocab.end()
            ? It->second
            : Extra
                  .emplace(Tok,
                           static_cast<uint32_t>(Vocab.size() + Extra.size()))
                  .first->second);
  });
  return bleuIds(Ids, CandIds, Vocab.size() + Extra.size(), MaxN);
}

} // namespace veriopt
