//===- CommandLine.h - Strict numeric flag values ----------------*- C++ -*-=//
//
// The command-line tools read counts (shards, workers, corpus sizes) and
// 64-bit seeds from their arguments. atoi would turn "-1" into 4294967295
// shards and abort in the allocator, and atol turns "0xBEEF" into seed 0;
// a value must instead parse completely or be a usage error.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_COMMANDLINE_H
#define VERIOPT_SUPPORT_COMMANDLINE_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace veriopt {

/// Parse \p Text as a base-10 unsigned value that spans the whole string.
/// Signs, blanks, trailing bytes and values above UINT_MAX are rejected,
/// leaving \p Out unchanged.
inline bool parseUnsignedArg(const char *Text, unsigned &Out) {
  const char *End = Text + std::strlen(Text);
  unsigned V = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

/// Parse \p Text as a 64-bit unsigned value (seeds, milliseconds): decimal,
/// or hexadecimal after "0x"/"0X", spanning the whole string. Signs,
/// blanks, trailing bytes and values above UINT64_MAX are rejected, leaving
/// \p Out unchanged.
inline bool parseU64Arg(const char *Text, uint64_t &Out) {
  const char *End = Text + std::strlen(Text);
  int Base = 10;
  if (End - Text > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X')) {
    Text += 2;
    Base = 16;
  }
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, V, Base);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}

} // namespace veriopt

#endif // VERIOPT_SUPPORT_COMMANDLINE_H
