/**
 * @file
 * Recursive-descent parser for the xl loop-nest language (grammar in
 * DESIGN.md Section 17). Produces a FrontendModule: array
 * declarations plus a top-level statement list in the xcc loop IR,
 * ready for pattern selection and code generation. Loops carry their
 * `#pragma xloops` annotation (unordered / ordered / atomic / auto,
 * optionally `nohint`); expressions use C precedence with `min` and
 * `max` builtins.
 */

#ifndef XLOOPS_FRONTEND_PARSER_H
#define XLOOPS_FRONTEND_PARSER_H

#include "compiler/ir.h"
#include "frontend/lexer.h"

namespace xloops {

/** One `array NAME[words] = { ... };` declaration. */
struct ArrayDeclInfo
{
    std::string name;
    unsigned words = 0;
    std::vector<i32> init;   ///< leading words; the rest are zero
};

/** A parsed xl module: the frontend's output and the renderer's
 *  input. */
struct FrontendModule
{
    std::vector<ArrayDeclInfo> arrays;
    std::vector<Stmt> topLevel;

    const ArrayDeclInfo *findArray(const std::string &name) const;
};

/** Parse @p source into a module; throws FrontendError on syntax
 *  errors, undeclared arrays, duplicate or zero-sized arrays, and
 *  scalar reads of a name nothing assigns or that names an array. */
FrontendModule parseModule(const std::string &source);

} // namespace xloops

#endif // XLOOPS_FRONTEND_PARSER_H
