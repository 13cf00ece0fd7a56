//===- CommandLineTest.cpp - Strict numeric flag values ----------------------//
//
// A flag value parses whole or not at all: counts are decimal, 64-bit
// values (seeds, milliseconds) decimal or 0x hex, and nothing takes a sign,
// a blank or a trailing byte.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "gtest/gtest.h"

#include <cstdint>

namespace veriopt {
namespace {

TEST(CommandLine, U64AcceptsDecimalAndHex) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64Arg("48879", V));
  EXPECT_EQ(V, 48879u);
  EXPECT_TRUE(parseU64Arg("0xBEEF", V));
  EXPECT_EQ(V, 0xBEEFu);
  EXPECT_TRUE(parseU64Arg("0Xc0ffee", V));
  EXPECT_EQ(V, 0xC0FFEEu);
  EXPECT_TRUE(parseU64Arg("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64Arg("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseU64Arg("0xffffffffffffffff", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(CommandLine, U64RejectsAnythingButAWholeNumber) {
  uint64_t V = 7;
  for (const char *Bad :
       {"", "-1", "+1", " 1", "1 ", "25x", "abc", "0x", "0x-1", "0x+1",
        "0x 1", "0xg", "1e3", "0b1", "18446744073709551616",
        "0x10000000000000000"})
    EXPECT_FALSE(parseU64Arg(Bad, V)) << '"' << Bad << '"';
  EXPECT_EQ(V, 7u) << "a rejected value must leave the output unchanged";
}

TEST(CommandLine, CountsAreDecimalOnly) {
  unsigned V = 7;
  EXPECT_TRUE(parseUnsignedArg("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
  for (const char *Bad : {"-1", "0x10", "4294967296", "3x", ""})
    EXPECT_FALSE(parseUnsignedArg(Bad, V)) << '"' << Bad << '"';
  EXPECT_EQ(V, 4294967295u);
}

} // namespace
} // namespace veriopt
