//===- PrinterTest.cpp - Printing and print/parse round-trips -------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "oracle/Pins.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

TEST(Printer, SimpleFunctionShape) {
  auto M = parseModule("define i32 @f(i32 %x) {\n  %y = add nsw i32 %x, 1\n"
                       "  ret i32 %y\n}\n");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  std::string Text = printFunction(*M.value()->getMainFunction());
  EXPECT_NE(Text.find("define i32 @f(i32 %x)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("%y = add nsw i32 %x, 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ret i32 %y"), std::string::npos) << Text;
}

TEST(Printer, BooleanConstantsPrintAsKeywords) {
  auto M = parseModule(
      "define i32 @f(i32 %a, i32 %b) {\n"
      "  %r = select i1 true, i32 %a, i32 %b\n  ret i32 %r\n}\n");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  std::string Text = printFunction(*M.value()->getMainFunction());
  EXPECT_NE(Text.find("select i1 true"), std::string::npos) << Text;
}

TEST(Printer, NegativeConstants) {
  auto M = parseModule("define i32 @f() {\n  ret i32 -159\n}\n");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  std::string Text = printFunction(*M.value()->getMainFunction());
  EXPECT_NE(Text.find("ret i32 -159"), std::string::npos) << Text;
}

TEST(Printer, UnnamedValuesGetSequentialNumbers) {
  // Values named by the parser keep their textual names; this checks the
  // numbering path with programmatically built IR.
  auto F = std::make_unique<Function>(
      "g", Type::getInt32(), std::vector<Type *>{Type::getInt32()}, false);
  BasicBlock *BB = F->createBlock(""); // unnamed entry
  auto *Add = BB->push_back(std::make_unique<BinaryInst>(
      Opcode::Add, F->getArg(0), F->getConstant(32, 1)));
  BB->push_back(std::make_unique<RetInst>(Add));
  std::string Text = printFunction(*F);
  // arg gets %0, block gets 1, add gets %2.
  EXPECT_NE(Text.find("define i32 @g(i32 %0)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("%2 = add i32 %0, 1"), std::string::npos) << Text;
}

/// Round-trip property: print(parse(print(F))) == print(F).
class RoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTrip, PrintParsePrintIsStable) {
  auto M1 = parseModule(GetParam());
  ASSERT_TRUE(M1.hasValue()) << M1.error().render();
  std::string P1 = printModule(*M1.value());
  auto M2 = parseModule(P1);
  ASSERT_TRUE(M2.hasValue()) << "reparse failed: " << M2.error().render()
                             << "\n"
                             << P1;
  std::string P2 = printModule(*M2.value());
  EXPECT_EQ(P1, P2);
  // Both parses must be well-formed.
  EXPECT_TRUE(isWellFormed(*M1.value()->getMainFunction()));
  EXPECT_TRUE(isWellFormed(*M2.value()->getMainFunction()));
}

const char *const RoundTripCorpus[] = {
    "define i32 @a(i32 %x) {\n  ret i32 %x\n}\n",
    "define i64 @b(i64 %x, i64 %y) {\n"
    "  %s = add nuw i64 %x, %y\n  %t = xor i64 %s, -1\n  ret i64 %t\n}\n",
    "define i1 @c(i32 %x) {\n  %r = icmp slt i32 %x, 0\n  ret i1 %r\n}\n",
    "define i32 @d(i1 %c, i32 %a, i32 %b) {\n"
    "  %r = select i1 %c, i32 %a, i32 %b\n  ret i32 %r\n}\n",
    "define i64 @e(i8 %x) {\n  %w = sext i8 %x to i64\n  ret i64 %w\n}\n",
    "define i32 @f(i32 %n) {\nentryblk:\n  br label %head\nhead:\n"
    "  %i = phi i32 [ 0, %entryblk ], [ %ni, %body ]\n"
    "  %c = icmp ult i32 %i, %n\n  br i1 %c, label %body, label %done\n"
    "body:\n  %ni = add i32 %i, 1\n  br label %head\ndone:\n"
    "  ret i32 %i\n}\n",
    "define i32 @g(ptr %p) {\n  %q = getelementptr i8, ptr %p, i64 4\n"
    "  %v = load i32, ptr %q\n  ret i32 %v\n}\n",
    "define void @h(i32 %v) {\n  %s = alloca i32\n"
    "  store i32 %v, ptr %s\n  ret void\n}\n",
    "declare void @ext(i32)\ndefine void @i() {\n"
    "  call void @ext(i32 3)\n  ret void\n}\n",
    "declare i32 @ext2(i32)\ndefine i16 @j(i8 %a, i32 %b) {\n"
    "  %w = zext i8 %a to i32\n  %m = mul nsw i32 %w, %b\n"
    "  %d = udiv exact i32 %m, 4\n  %r = call i32 @ext2(i32 %d)\n"
    "  %t = trunc i32 %r to i16\n  ret i16 %t\n}\n"};

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTrip,
                         ::testing::ValuesIn(RoundTripCorpus));

/// Bit-identity pin over every byte the printer emits for a seeded corpus
/// (each sample's source and reference) and for the round-trip corpus,
/// as parsed and with every name dropped (the cache key's canonical form,
/// which takes the sequential %N numbering path).
TEST(Printer, OutputBytesArePinned) {
  pins::Fnv1a D;
  std::string All;
  auto Add = [&](const std::string &Text) {
    D.addStr(Text);
    All += Text;
  };
  for (const Sample &S : pins::corpus().Train) {
    Add(printFunction(*S.source()));
    Add(printFunction(*S.Reference));
  }
  for (const char *Src : RoundTripCorpus) {
    auto M = parseModule(Src);
    ASSERT_TRUE(M.hasValue()) << M.error().render();
    Add(printModule(*M.value()));
    for (const auto &F : M.value()->functions()) {
      for (unsigned I = 0; I < F->getNumParams(); ++I)
        F->getArg(I)->setName("");
      for (auto &BB : *F) {
        BB->setName("");
        for (auto &Inst : *BB)
          Inst->setName("");
      }
    }
    Add(printModule(*M.value()));
  }
  // Every instruction form the printer renders occurs at least once.
  for (const char *Form :
       {" = icmp ", " = select ", " = zext ", " = sext ", " = trunc ",
        " = alloca ", " = load ", "  store ", " = getelementptr ", " = phi ",
        "  br i1 ", "  br label ", "  ret i", "  ret void", "  call void ",
        " = call ", " nuw ", " nsw ", " exact "})
    EXPECT_NE(All.find(Form), std::string::npos) << Form;
  EXPECT_EQ(D.H, 0xbf8e373f41eb7b15ULL);
}

/// The canonical mode prints exactly what dropping every name and printing
/// does (the cache key's canonical form before the mode existed), for the
/// seeded corpus, its decodes and the round-trip corpus, plus declarations
/// and unnamed or numbered blocks.
TEST(Printer, CanonicalModeMatchesClearedNames) {
  auto clearedPrint = [](const std::string &Text) {
    auto M = parseModule(Text);
    for (const auto &F : M.value()->functions()) {
      for (unsigned I = 0; I < F->getNumParams(); ++I)
        F->getArg(I)->setName("");
      for (auto &BB : *F) {
        BB->setName("");
        for (auto &Inst : *BB)
          Inst->setName("");
      }
    }
    return printModule(*M.value());
  };
  std::vector<std::string> Texts(std::begin(RoundTripCorpus),
                                 std::end(RoundTripCorpus));
  Texts.push_back("declare i32 @ext(i32)\ndeclare void @sink(i64, i1)\n"
                  "define i32 @k(i32 %a) {\n  %r = call i32 @ext(i32 %a)\n"
                  "  ret i32 %r\n}\n");
  Texts.push_back("define i32 @u(i32 %0) {\n  %2 = add i32 %0, 1\n"
                  "  br label %3\n3:\n  ret i32 %2\n}\n");
  for (const Sample &S : pins::corpus().Train) {
    Texts.push_back(S.SrcText);
    Texts.push_back(S.RefText);
  }
  for (const pins::Decode &X : pins::decodes())
    for (const std::string *Text : {&X.C.AnswerIR, &X.C.ThinkAttemptIR})
      Texts.push_back(*Text);
  unsigned Parsed = 0, Declares = 0, Renamed = 0;
  for (const std::string &Text : Texts) {
    auto M = parseModule(Text);
    if (!M)
      continue;
    ++Parsed;
    std::string Canon = printModule(*M.value(), PrintNames::Canonical);
    EXPECT_EQ(Canon, clearedPrint(Text)) << Text;
    Declares += Canon.find("declare ") != std::string::npos;
    Renamed += Canon != printModule(*M.value());
  }
  EXPECT_GT(Parsed, 100u);
  EXPECT_GT(Declares, 0u);
  EXPECT_GT(Renamed, 0u);
}

} // namespace
} // namespace veriopt
