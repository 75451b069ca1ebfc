/**
 * @file
 * Lexer for the xl loop-nest language — the textual frontend whose
 * programs lower through xcc's dependence analysis and pattern
 * selection (see DESIGN.md Section 17 for the grammar). Tokens carry
 * source positions so parse errors point at the offending line.
 */

#ifndef XLOOPS_FRONTEND_LEXER_H
#define XLOOPS_FRONTEND_LEXER_H

#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace xloops {

/** A lex or parse error, positioned in the source text. Derives from
 *  FatalError so tool-level catch sites treat it as a user error. */
class FrontendError : public FatalError
{
  public:
    FrontendError(const std::string &msg, unsigned line, unsigned col)
        : FatalError(strf("xl:", line, ":", col, ": ", msg)),
          ln(line), cl(col)
    {
    }

    unsigned line() const { return ln; }
    unsigned col() const { return cl; }

  private:
    unsigned ln;
    unsigned cl;
};

/** One lexical token. */
struct Token
{
    enum class Kind
    {
        Ident,   ///< identifier or keyword (text)
        Number,  ///< decimal integer literal (value)
        Punct,   ///< operator / punctuator (text, maximal munch)
        End,     ///< end of input (always the last token)
    };

    Kind kind = Kind::End;
    std::string text;
    i64 value = 0;
    unsigned line = 1;
    unsigned col = 1;

    bool is(Kind k, std::string_view t) const
    {
        return kind == k && text == t;
    }
};

/** Tokenize @p source ("//" comments skipped); throws FrontendError
 *  on malformed input (bad characters, out-of-range literals). */
std::vector<Token> lex(const std::string &source);

} // namespace xloops

#endif // XLOOPS_FRONTEND_LEXER_H
