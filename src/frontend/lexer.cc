#include "frontend/lexer.h"

#include <cctype>

namespace xloops {

namespace {

/** Two-character punctuators, tried before single characters. */
const char *const twoCharPuncts[] = {
    "&&", "||", "<<", ">>", "<=", ">=", "==", "!=", "++",
};

bool
singleCharPunct(char c)
{
    switch (c) {
      case '(': case ')': case '{': case '}': case '[': case ']':
      case ';': case ',': case '=': case '<': case '>': case '+':
      case '-': case '*': case '/': case '%': case '&': case '|':
      case '^': case '!': case '#':
        return true;
      default:
        return false;
    }
}

} // namespace

std::vector<Token>
lex(const std::string &source)
{
    std::vector<Token> out;
    // Generated xl programs average two source bytes per token, and
    // none has more than 0.6 tokens per byte.
    out.reserve(source.size() * 3 / 5 + 1);
    unsigned line = 1;
    unsigned col = 1;
    size_t i = 0;
    const size_t n = source.size();

    auto advance = [&](size_t count) {
        for (size_t k = 0; k < count; k++) {
            if (source[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
            i++;
        }
    };

    while (i < n) {
        const char c = source[i];
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance(1);
            continue;
        }
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            while (i < n && source[i] != '\n')
                advance(1);
            continue;
        }

        Token &tok = out.emplace_back();
        tok.line = line;
        tok.col = col;
        size_t j = i;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            while (j < n &&
                   (std::isalnum(static_cast<unsigned char>(source[j])) ||
                    source[j] == '_'))
                j++;
            tok.kind = Token::Kind::Ident;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            i64 value = 0;
            bool overflow = false;
            while (j < n &&
                   std::isdigit(static_cast<unsigned char>(source[j]))) {
                if (!overflow)
                    value = value * 10 + (source[j] - '0');
                if (value > i64{1} << 40)
                    overflow = true;  // stop accumulating; reject below
                j++;
            }
            if (overflow || value > 0x7fffffffLL) {
                throw FrontendError(
                    "integer literal out of i32 range: " +
                        source.substr(i, j - i),
                    line, col);
            }
            tok.kind = Token::Kind::Number;
            tok.value = value;
        } else {
            size_t width = singleCharPunct(c) ? 1 : 0;
            if (i + 1 < n) {
                for (const char *p : twoCharPuncts)
                    if (c == p[0] && source[i + 1] == p[1])
                        width = 2;
            }
            if (!width)
                throw FrontendError(strf("unexpected character '", c, "'"),
                                    line, col);
            tok.kind = Token::Kind::Punct;
            j = i + width;
        }
        tok.text.assign(source, i, j - i);
        col += static_cast<unsigned>(j - i);  // a token holds no newline
        i = j;
    }

    Token end;
    end.kind = Token::Kind::End;
    end.line = line;
    end.col = col;
    out.push_back(end);
    return out;
}

} // namespace xloops
