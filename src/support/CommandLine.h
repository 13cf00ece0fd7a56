//===- CommandLine.h - Strict numeric flag values ----------------*- C++ -*-=//
//
// The command-line tools read counts (shards, workers, corpus sizes) from
// their arguments. atoi would turn "-1" into 4294967295 shards and abort
// in the allocator; a count must instead parse completely or be a usage
// error.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_COMMANDLINE_H
#define VERIOPT_SUPPORT_COMMANDLINE_H

#include <charconv>
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

} // namespace veriopt

#endif // VERIOPT_SUPPORT_COMMANDLINE_H
