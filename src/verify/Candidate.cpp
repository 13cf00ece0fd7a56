//===- Candidate.cpp - One candidate answer, parsed once ----------------------//

#include "verify/Candidate.h"

#include "ir/Parser.h"
#include "ir/Printer.h"

namespace veriopt {

Candidate::Candidate(std::string Text) : Text(std::move(Text)) {
  auto Parsed = parseModule(this->Text);
  if (!Parsed) {
    ParseErrorText = Parsed.error().render();
    return;
  }
  M = Parsed.takeValue();
  Canon = printModule(*M, PrintNames::Canonical);
}

const Candidate &CandidateSet::get(const std::string &Text) {
  auto It = ByText.find(Text);
  if (It != ByText.end())
    return *It->second;
  const Candidate &C = *Owned.emplace_back(std::make_unique<Candidate>(Text));
  ByText.emplace(C.text(), &C);
  return C;
}

} // namespace veriopt
