//===- term/Parser.h - Text parsing of terms and facts ----------*- C++ -*-===//
///
/// \file
/// A small recursive-descent parser for terms, atoms and conjunctions, and
/// the Lexer it is built on (also reused by the mini-language program
/// parser in ir/ProgramParser.h).
///
/// Concrete syntax:
///   term  :=  sum of products; products need a numeric factor (linearity
///             is enforced when the term reaches a numeric domain, not here)
///   atom  :=  term (= | <= | < | >= | >) term
///           | p(term, ...)        for a registered predicate symbol p
///   conj  :=  "true" | "false" | atom ("&&" atom)*
///
/// Strict comparisons are desugared with integer semantics:
/// a < b becomes a+1 <= b.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_TERM_PARSER_H
#define CAI_TERM_PARSER_H

#include "term/Conjunction.h"

#include <optional>
#include <string>
#include <string_view>

namespace cai {

/// Token kinds shared by the term parser and the program parser.
enum class TokKind : uint8_t {
  Ident,
  Number,
  LParen,
  RParen,
  LBrace,
  RBrace,
  Comma,
  Semi,
  Plus,
  Minus,
  Star,
  Eq,     // = or ==
  Le,     // <=
  Lt,     // <
  Ge,     // >=
  Gt,     // >
  Ne,     // !=
  Bang,   // !
  AndAnd, // &&
  Assign, // :=
  End,
  Error,
};

/// One lexed token.
struct Token {
  TokKind Kind;
  std::string Text;
  size_t Pos; // Byte offset in the input, for error messages.
};

/// A single-pass lexer over a string view.
class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) { advance(); }

  const Token &peek() const { return Current; }
  Token next() {
    Token T = Current;
    advance();
    return T;
  }
  bool consumeIf(TokKind Kind) {
    if (Current.Kind != Kind)
      return false;
    advance();
    return true;
  }

private:
  void advance();

  std::string_view Text;
  size_t Pos = 0;
  Token Current{TokKind::End, "", 0};
};

/// Bound on syntactic nesting: parenthesized and function-argument
/// subterms in the term parser, blocks in the program parser.  Deeper
/// input is a parse error, not a stack overflow.
constexpr unsigned MaxParseDepth = 1000;

/// Parses a complete term from \p Text.  On failure returns std::nullopt and
/// sets \p Error.
std::optional<Term> parseTerm(TermContext &Ctx, std::string_view Text,
                              std::string *Error = nullptr);

/// Parses a complete atom from \p Text.
std::optional<Atom> parseAtom(TermContext &Ctx, std::string_view Text,
                              std::string *Error = nullptr);

/// Parses a complete conjunction ("true", "false", or atoms joined by &&).
std::optional<Conjunction> parseConjunction(TermContext &Ctx,
                                            std::string_view Text,
                                            std::string *Error = nullptr);

/// Parser internals exposed for reuse by the program parser: parse one term
/// or atom starting at the lexer's current token.
std::optional<Term> parseTermFrom(TermContext &Ctx, Lexer &Lex,
                                  std::string &Error);
std::optional<Atom> parseAtomFrom(TermContext &Ctx, Lexer &Lex,
                                  std::string &Error);

/// Returns the negation of \p A as an atomic fact when one exists in the
/// supported theories: !(a <= b) becomes b+1 <= a (integer semantics),
/// !even(t) becomes odd(t) and vice versa, !positive(t) becomes
/// negative(t-1) and !negative(t) becomes positive(t+1).  Disequalities
/// are not atomic in any convex theory, so !(a = b) returns std::nullopt.
std::optional<Atom> negateAtom(TermContext &Ctx, const Atom &A);

} // namespace cai

#endif // CAI_TERM_PARSER_H
