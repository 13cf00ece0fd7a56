//===- BleuTest.cpp - Tokenizer and BLEU tests -----------------------------===//

#include "textgen/Bleu.h"

#include "oracle/Pins.h"

#include <gtest/gtest.h>

#include <cstring>

namespace veriopt {
namespace {

TEST(Tokenizer, IRTokens) {
  auto T = tokenizeIR("%y = add nsw i32 %x, -42");
  std::vector<std::string> Expected = {"%y", "=",   "add", "nsw",
                                       "i32", "%x", ",",   "-42"};
  EXPECT_EQ(T, Expected);
}

TEST(Tokenizer, SigilsAndPunctuation) {
  auto T = tokenizeIR("call void @foo(i32 0) #2");
  std::vector<std::string> Expected = {"call", "void", "@foo", "(",
                                       "i32",  "0",    ")",    "#2"};
  EXPECT_EQ(T, Expected);
}

TEST(Bleu, IdenticalScoresOne) {
  EXPECT_DOUBLE_EQ(bleuText("ret i32 %x", "ret i32 %x"), 1.0);
}

TEST(Bleu, DisjointScoresZero) {
  EXPECT_DOUBLE_EQ(bleuText("ret i32 %x", "br label %y"), 0.0);
}

TEST(Bleu, EmptyCases) {
  EXPECT_DOUBLE_EQ(bleuText("", ""), 1.0);
  EXPECT_DOUBLE_EQ(bleuText("ret i32 0", ""), 0.0);
  EXPECT_DOUBLE_EQ(bleuText("", "ret i32 0"), 0.0);
}

TEST(Bleu, PartialOverlapBetweenZeroAndOne) {
  double S = bleuText("%y = add i32 %x, 1\nret i32 %y",
                      "%y = add i32 %x, 2\nret i32 %y");
  EXPECT_GT(S, 0.0);
  EXPECT_LT(S, 1.0);
}

TEST(Bleu, MonotoneInSimilarity) {
  const char *Ref = "%a = add i32 %x, 1\n%b = mul i32 %a, 2\nret i32 %b";
  double Close = bleuText(Ref, "%a = add i32 %x, 1\n%b = mul i32 %a, 4\n"
                               "ret i32 %b");
  double Far = bleuText(Ref, "%q = sdiv i32 %x, 3\nret i32 %q");
  EXPECT_GT(Close, Far);
}

TEST(Bleu, BrevityPenaltyPunishesTruncation) {
  const char *Ref = "%a = add i32 %x, 1\n%b = mul i32 %a, 2\nret i32 %b";
  double Full = bleuText(Ref, Ref);
  double Truncated = bleuText(Ref, "%a = add i32 %x, 1");
  EXPECT_GT(Full, Truncated);
  EXPECT_LT(Truncated, 0.9);
}

TEST(Bleu, NotSymmetricButBothReasonable) {
  const char *A = "ret i32 %x";
  const char *B = "ret i32 %x\nret i32 %x\nret i32 %x";
  // Long candidate against short reference: precision drops only mildly;
  // short candidate against long reference: brevity penalty bites.
  EXPECT_GT(bleuText(A, B), 0.0);
  EXPECT_GT(bleuText(B, A), 0.0);
}

/// Every text the pins print or decode: sources, references, answers and
/// think attempts.
std::vector<std::string> pinTexts() {
  std::vector<std::string> Texts;
  for (const Sample &S : pins::corpus().Train) {
    Texts.push_back(S.SrcText);
    Texts.push_back(S.RefText);
  }
  for (const pins::Decode &X : pins::decodes()) {
    Texts.push_back(X.C.AnswerIR);
    Texts.push_back(X.C.ThinkAttemptIR);
  }
  return Texts;
}

TEST(Bleu, CountMatchesTokenize) {
  std::vector<std::string> Texts = pinTexts();
  for (const char *Edge :
       {"", " \t\n", "-", "x -", "-7", "ret i32 -", "add i32 %x, -4",
        "%", "@", "ret i32 %", "a%", "#!", "\x80", "%\xc3\xa9t\xc3\xa9 = ",
        "i32 \xff\xfe-1", "\xe2\x80\x94-\xe2\x80\x94", "-\x85"})
    Texts.push_back(Edge);
  for (const std::string &Text : Texts)
    EXPECT_EQ(countIRTokens(Text), tokenizeIR(Text).size()) << Text;
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

TEST(Bleu, ReferenceScoreMatchesBleuText) {
  // A reference tokenized once scores every candidate bit-identically to
  // bleuText, at every n-gram order.
  std::vector<std::string> Texts = pinTexts();
  Texts.push_back("");
  for (const Sample &S : pins::corpus().Train) {
    const BleuReference Ref(S.RefText);
    for (const std::string &Cand : Texts)
      for (unsigned N : {1u, 4u, 5u})
        ASSERT_EQ(bitsOf(Ref.score(Cand, N)),
                  bitsOf(bleuText(S.RefText, Cand, N)))
            << N << "\n"
            << Cand;
  }
  const BleuReference Empty("");
  EXPECT_EQ(Empty.score(""), bleuText("", ""));
  EXPECT_EQ(Empty.score("ret i32 0"), bleuText("", "ret i32 0"));
}

TEST(Bleu, ReferenceKeepsThePackableDecision) {
  // n-grams pack into 16 bits per token id while reference and candidate
  // hold fewer than 2^16 distinct tokens together; the candidate's own new
  // tokens count toward that. Straddle the limit from the candidate side.
  std::string Ref, Shared;
  for (unsigned I = 0; I < 40000; ++I)
    Ref += "r" + std::to_string(I) + " ";
  for (unsigned I = 0; I < 100; ++I)
    Shared += "s" + std::to_string(I) + " ";
  Ref += Shared;
  const BleuReference Cached(Ref);
  for (unsigned Extra : {25435u, 25436u}) { // 65535 and 65536 in all
    std::string Cand = Shared;
    for (unsigned I = 0; I < 500; ++I)
      Cand += "r" + std::to_string(I) + " ";
    for (unsigned I = 0; I < Extra; ++I)
      Cand += "c" + std::to_string(I) + " ";
    EXPECT_EQ(bitsOf(Cached.score(Cand)), bitsOf(bleuText(Ref, Cand)))
        << Extra;
  }
}

} // namespace
} // namespace veriopt
