//===- Candidate.h - One candidate answer, parsed once -----------*- C++ -*-=//
//
// A candidate is one distinct answer text as the verifier, the cache key and
// the reward see it. It holds the text, the parse with its names as written
// (or, for a text that does not parse, the rendered parse error) and the
// canonical text: the parse printed with every value and block numbered as
// if it had no name, which is what VerifyCache keys compare. Built once per
// distinct text and passed by reference from dedupe to cache key to verdict
// to reward, so an answer is parsed and canonically printed once.
//
// A Candidate never changes after construction, so any number of threads
// may read it at once.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_CANDIDATE_H
#define VERIOPT_VERIFY_CANDIDATE_H

#include "ir/Function.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace veriopt {

class Candidate {
public:
  /// Parse \p Text and, when it parses, print it canonically.
  explicit Candidate(std::string Text);

  const std::string &text() const { return Text; }
  /// The parse, names kept; null when the text does not parse.
  const Module *module() const { return M.get(); }
  /// The parse's main function; null when the text does not parse or
  /// defines no function.
  const Function *function() const {
    return M ? M->getMainFunction() : nullptr;
  }
  /// The rendered parse error; empty when the text parses.
  const std::string &parseError() const { return ParseErrorText; }
  /// The canonical text; a text that does not parse is its own canonical
  /// text.
  const std::string &canonical() const { return M ? Canon : Text; }

private:
  std::string Text;
  std::unique_ptr<Module> M;
  std::string ParseErrorText;
  std::string Canon;
};

/// One Candidate per distinct text: a text seen before gets the Candidate
/// built for it the first time, so it is parsed once. Candidates live as
/// long as the set, at stable addresses.
class CandidateSet {
public:
  const Candidate &get(const std::string &Text);

private:
  std::vector<std::unique_ptr<Candidate>> Owned;
  /// Keys view the texts of Owned.
  std::unordered_map<std::string_view, const Candidate *> ByText;
};

} // namespace veriopt

#endif // VERIOPT_VERIFY_CANDIDATE_H
