//===- term/Parser.cpp - Text parsing of terms and facts -------------------===//

#include "term/Parser.h"

#include <cctype>

using namespace cai;

void Lexer::advance() {
  while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(Text[Pos])))
    ++Pos;
  Current.Pos = Pos;
  if (Pos >= Text.size()) {
    Current = {TokKind::End, "", Pos};
    return;
  }
  char C = Text[Pos];
  auto Single = [&](TokKind Kind) {
    Current = {Kind, std::string(1, C), Pos};
    ++Pos;
  };
  auto Pair = [&](TokKind Kind, const char *Str) {
    Current = {Kind, Str, Pos};
    Pos += 2;
  };

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$') {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '$' || Text[Pos] == '\''))
      ++Pos;
    Current = {TokKind::Ident, std::string(Text.substr(Start, Pos - Start)),
               Start};
    return;
  }
  if (std::isdigit(static_cast<unsigned char>(C))) {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    Current = {TokKind::Number, std::string(Text.substr(Start, Pos - Start)),
               Start};
    return;
  }

  auto Next = Pos + 1 < Text.size() ? Text[Pos + 1] : '\0';
  switch (C) {
  case '(':
    return Single(TokKind::LParen);
  case ')':
    return Single(TokKind::RParen);
  case '{':
    return Single(TokKind::LBrace);
  case '}':
    return Single(TokKind::RBrace);
  case ',':
    return Single(TokKind::Comma);
  case ';':
    return Single(TokKind::Semi);
  case '+':
    return Single(TokKind::Plus);
  case '-':
    return Single(TokKind::Minus);
  case '*':
    return Single(TokKind::Star);
  case '=':
    if (Next == '=')
      return Pair(TokKind::Eq, "==");
    return Single(TokKind::Eq);
  case '<':
    if (Next == '=')
      return Pair(TokKind::Le, "<=");
    return Single(TokKind::Lt);
  case '>':
    if (Next == '=')
      return Pair(TokKind::Ge, ">=");
    return Single(TokKind::Gt);
  case '!':
    if (Next == '=')
      return Pair(TokKind::Ne, "!=");
    return Single(TokKind::Bang);
  case '&':
    if (Next == '&')
      return Pair(TokKind::AndAnd, "&&");
    break;
  case ':':
    if (Next == '=')
      return Pair(TokKind::Assign, ":=");
    break;
  default:
    break;
  }
  Current = {TokKind::Error, std::string(1, C), Pos};
  ++Pos;
}

namespace {

/// Recursive-descent term parser over a shared lexer.
class TermParser {
public:
  TermParser(TermContext &Ctx, Lexer &Lex, std::string &Error)
      : Ctx(Ctx), Lex(Lex), Error(Error) {}

  std::optional<Term> parseSum() {
    if (Depth == MaxParseDepth)
      return fail("expression nested deeper than " +
                  std::to_string(MaxParseDepth) + " levels");
    ++Depth;
    std::optional<Term> T = parseSumAt();
    --Depth;
    return T;
  }

  std::optional<Term> parseSumAt() {
    bool Negate = false;
    while (Lex.peek().Kind == TokKind::Minus) {
      Lex.next();
      Negate = !Negate;
    }
    std::optional<Term> Left = parseProduct();
    if (!Left)
      return std::nullopt;
    Term Acc = Negate ? Ctx.mkNeg(*Left) : *Left;
    while (Lex.peek().Kind == TokKind::Plus ||
           Lex.peek().Kind == TokKind::Minus) {
      bool Minus = Lex.next().Kind == TokKind::Minus;
      std::optional<Term> Right = parseProduct();
      if (!Right)
        return std::nullopt;
      Acc = Minus ? Ctx.mkSub(Acc, *Right) : Ctx.mkAdd(Acc, *Right);
    }
    return Acc;
  }

  std::optional<Term> parsePrimary() {
    Token T = Lex.peek();
    switch (T.Kind) {
    case TokKind::Number: {
      Lex.next();
      return Ctx.mkNum(BigInt::fromString(T.Text));
    }
    case TokKind::LParen: {
      Lex.next();
      std::optional<Term> Inner = parseSum();
      if (!Inner)
        return std::nullopt;
      if (!Lex.consumeIf(TokKind::RParen))
        return fail("expected ')'");
      return Inner;
    }
    case TokKind::Ident: {
      Lex.next();
      if (Lex.peek().Kind != TokKind::LParen)
        return Ctx.mkVar(T.Text);
      Lex.next(); // '('
      std::vector<Term> Args;
      if (Lex.peek().Kind != TokKind::RParen) {
        while (true) {
          std::optional<Term> Arg = parseSum();
          if (!Arg)
            return std::nullopt;
          Args.push_back(*Arg);
          if (!Lex.consumeIf(TokKind::Comma))
            break;
        }
      }
      if (!Lex.consumeIf(TokKind::RParen))
        return fail("expected ')' after arguments");
      Symbol Existing = Ctx.findSymbol(T.Text);
      if (Existing.isValid() &&
          Ctx.info(Existing).Kind == SymbolKind::Predicate)
        return fail("predicate symbol '" + T.Text + "' used as a function");
      if (Existing.isValid() &&
          Ctx.info(Existing).Arity != Args.size())
        return fail("arity mismatch for '" + T.Text + "'");
      Symbol Fn = Ctx.getFunction(T.Text, static_cast<unsigned>(Args.size()));
      return Ctx.mkApp(Fn, std::move(Args));
    }
    default:
      return fail("expected a term, found '" + T.Text + "'");
    }
  }

  std::optional<Term> parseProduct() {
    std::optional<Term> First = parsePrimary();
    if (!First)
      return std::nullopt;
    Term Acc = *First;
    while (Lex.peek().Kind == TokKind::Star) {
      Lex.next();
      std::optional<Term> Next = parsePrimary();
      if (!Next)
        return std::nullopt;
      if (Acc->isNumber())
        Acc = Ctx.mkMul(Acc->number(), *Next);
      else if ((*Next)->isNumber())
        Acc = Ctx.mkMul((*Next)->number(), Acc);
      else
        return fail("non-linear product");
    }
    return Acc;
  }

  std::optional<Atom> parseAtom() {
    // A registered predicate name followed by '(' builds a predicate atom.
    if (Lex.peek().Kind == TokKind::Ident) {
      Symbol Existing = Ctx.findSymbol(Lex.peek().Text);
      if (Existing.isValid() &&
          Ctx.info(Existing).Kind == SymbolKind::Predicate &&
          Existing != Ctx.eqSymbol() && Existing != Ctx.leSymbol()) {
        std::string Name = Lex.next().Text;
        if (!Lex.consumeIf(TokKind::LParen)) {
          fail("expected '(' after predicate '" + Name + "'");
          return std::nullopt;
        }
        std::vector<Term> Args;
        if (Lex.peek().Kind != TokKind::RParen) {
          while (true) {
            std::optional<Term> Arg = parseSum();
            if (!Arg)
              return std::nullopt;
            Args.push_back(*Arg);
            if (!Lex.consumeIf(TokKind::Comma))
              break;
          }
        }
        if (!Lex.consumeIf(TokKind::RParen)) {
          fail("expected ')' after predicate arguments");
          return std::nullopt;
        }
        if (Ctx.info(Existing).Arity != Args.size()) {
          fail("arity mismatch for predicate '" + Name + "'");
          return std::nullopt;
        }
        return Atom(Existing, std::move(Args));
      }
    }

    std::optional<Term> Left = parseSum();
    if (!Left)
      return std::nullopt;
    Token Op = Lex.next();
    std::optional<Term> Right;
    switch (Op.Kind) {
    case TokKind::Eq:
    case TokKind::Le:
    case TokKind::Lt:
    case TokKind::Ge:
    case TokKind::Gt:
      Right = parseSum();
      break;
    default:
      fail("expected a relational operator, found '" + Op.Text + "'");
      return std::nullopt;
    }
    if (!Right)
      return std::nullopt;
    Term A = *Left, B = *Right;
    switch (Op.Kind) {
    case TokKind::Eq:
      return Atom::mkEq(Ctx, A, B);
    case TokKind::Le:
      return Atom::mkLe(Ctx, A, B);
    case TokKind::Lt: // a < b  ==>  a+1 <= b (integer semantics)
      return Atom::mkLe(Ctx, Ctx.mkAdd(A, Ctx.mkNum(1)), B);
    case TokKind::Ge:
      return Atom::mkLe(Ctx, B, A);
    case TokKind::Gt:
      return Atom::mkLe(Ctx, Ctx.mkAdd(B, Ctx.mkNum(1)), A);
    default:
      break;
    }
    assert(false && "unhandled relational operator");
    return std::nullopt;
  }

private:
  std::optional<Term> fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at offset " + std::to_string(Lex.peek().Pos);
    return std::nullopt;
  }

  TermContext &Ctx;
  Lexer &Lex;
  std::string &Error;
  unsigned Depth = 0; ///< parseSum calls in progress.
};

} // namespace

std::optional<Term> cai::parseTermFrom(TermContext &Ctx, Lexer &Lex,
                                       std::string &Error) {
  return TermParser(Ctx, Lex, Error).parseSum();
}

std::optional<Atom> cai::parseAtomFrom(TermContext &Ctx, Lexer &Lex,
                                       std::string &Error) {
  return TermParser(Ctx, Lex, Error).parseAtom();
}

std::optional<Term> cai::parseTerm(TermContext &Ctx, std::string_view Text,
                                   std::string *Error) {
  Lexer Lex(Text);
  std::string Err;
  std::optional<Term> T = parseTermFrom(Ctx, Lex, Err);
  if (T && Lex.peek().Kind != TokKind::End) {
    Err = "trailing input at offset " + std::to_string(Lex.peek().Pos);
    T = std::nullopt;
  }
  if (!T && Error)
    *Error = Err;
  return T;
}

std::optional<Atom> cai::parseAtom(TermContext &Ctx, std::string_view Text,
                                   std::string *Error) {
  Lexer Lex(Text);
  std::string Err;
  std::optional<Atom> A = parseAtomFrom(Ctx, Lex, Err);
  if (A && Lex.peek().Kind != TokKind::End) {
    Err = "trailing input at offset " + std::to_string(Lex.peek().Pos);
    A = std::nullopt;
  }
  if (!A && Error)
    *Error = Err;
  return A;
}

std::optional<Conjunction> cai::parseConjunction(TermContext &Ctx,
                                                 std::string_view Text,
                                                 std::string *Error) {
  Lexer Lex(Text);
  std::string Err;
  auto Fail = [&](const std::string &Message) -> std::optional<Conjunction> {
    if (Error)
      *Error = Err.empty() ? Message : Err;
    return std::nullopt;
  };

  if (Lex.peek().Kind == TokKind::Ident && Lex.peek().Text == "true") {
    Lex.next();
    if (Lex.peek().Kind != TokKind::End)
      return Fail("trailing input after 'true'");
    return Conjunction::top();
  }
  if (Lex.peek().Kind == TokKind::Ident && Lex.peek().Text == "false") {
    Lex.next();
    if (Lex.peek().Kind != TokKind::End)
      return Fail("trailing input after 'false'");
    return Conjunction::bottom();
  }

  Conjunction Result;
  while (true) {
    std::optional<Atom> A = parseAtomFrom(Ctx, Lex, Err);
    if (!A)
      return Fail("malformed atom");
    Result.add(*A);
    if (!Lex.consumeIf(TokKind::AndAnd))
      break;
  }
  if (Lex.peek().Kind != TokKind::End)
    return Fail("trailing input at offset " + std::to_string(Lex.peek().Pos));
  return Result;
}

std::optional<Atom> cai::negateAtom(TermContext &Ctx, const Atom &A) {
  if (A.isLe(Ctx)) {
    // !(a <= b)  ==>  b + 1 <= a  under integer semantics.
    return Atom::mkLe(Ctx, Ctx.mkAdd(A.rhs(), Ctx.mkNum(1)), A.lhs());
  }
  const std::string &Name = Ctx.info(A.predicate()).Name;
  if (Name == "even" || Name == "odd") {
    Symbol Other = Ctx.getPredicate(Name == "even" ? "odd" : "even", 1);
    return Atom(Other, A.args());
  }
  if (Name == "positive") {
    // !(t >= 1)  ==>  t <= 0  ==>  negative(t - 1).
    Symbol Negative = Ctx.getPredicate("negative", 1);
    return Atom(Negative, {Ctx.mkSub(A.args()[0], Ctx.mkNum(1))});
  }
  if (Name == "negative") {
    Symbol Positive = Ctx.getPredicate("positive", 1);
    return Atom(Positive, {Ctx.mkAdd(A.args()[0], Ctx.mkNum(1))});
  }
  return std::nullopt; // Disequalities are not atomic in a convex theory.
}
