//===- Printer.h - Textual IR emission ---------------------------*- C++ -*-=//
//
// Renders modules/functions in LLVM-flavoured textual form. Unnamed values
// and blocks receive sequential %N numbering exactly once per print, in the
// LLVM style (arguments, then blocks/instructions in program order). The
// canonical mode numbers every value and block that way, named or not, so
// whitespace and naming variants of the same IR print the same bytes.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_IR_PRINTER_H
#define VERIOPT_IR_PRINTER_H

#include <string>

namespace veriopt {

class Function;
class Module;
class Instruction;

/// How a print names values and blocks.
enum class PrintNames {
  Kept,      ///< a named value or block prints its name
  Canonical, ///< every value and block is numbered as if it had no name
};

/// Print a whole module (declarations first, then definitions).
std::string printModule(const Module &M, PrintNames Names = PrintNames::Kept);

/// Print a single function definition or declaration.
std::string printFunction(const Function &F);

} // namespace veriopt

#endif // VERIOPT_IR_PRINTER_H
