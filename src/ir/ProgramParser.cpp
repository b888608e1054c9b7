//===- ir/ProgramParser.cpp - The mini-language front end ------------------===//

#include "ir/ProgramParser.h"

#include "ir/ProgramBuilder.h"
#include "term/Parser.h"

#include <algorithm>

using namespace cai;

namespace {

/// Blanks // comments with spaces so the shared Lexer does not need to
/// know about them.  Blanking (rather than deleting) keeps every byte
/// offset identical to the original source, so lexer error positions can
/// be mapped back to a line and column.
std::string stripComments(std::string_view Source) {
  std::string Out(Source);
  for (size_t I = 0; I < Out.size();) {
    if (Out[I] == '/' && I + 1 < Out.size() && Out[I + 1] == '/') {
      while (I < Out.size() && Out[I] != '\n')
        Out[I++] = ' ';
      continue;
    }
    ++I;
  }
  return Out;
}

/// Rewrites a trailing " at offset N" (the shared lexer's error format)
/// into " at line L, column C" (both 1-based) against the original source.
std::string withLineInfo(std::string Message, std::string_view Source) {
  const std::string Marker = " at offset ";
  size_t Pos = Message.rfind(Marker);
  if (Pos == std::string::npos ||
      Message.find_first_not_of("0123456789", Pos + Marker.size()) !=
          std::string::npos)
    return Message;
  size_t Offset = std::stoul(Message.substr(Pos + Marker.size()));
  size_t Line = 1, Col = 1;
  for (size_t I = 0; I < Offset && I < Source.size(); ++I) {
    if (Source[I] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
  }
  return Message.substr(0, Pos) + " at line " + std::to_string(Line) +
         ", column " + std::to_string(Col);
}

class StatementParser {
public:
  StatementParser(TermContext &Ctx, Lexer &Lex, ProgramBuilder &B,
                  std::string &Error)
      : Ctx(Ctx), Lex(Lex), B(B), Error(Error) {}

  bool parseStatements(bool InsideBlock) {
    while (true) {
      TokKind K = Lex.peek().Kind;
      if (K == TokKind::End)
        return !InsideBlock || fail("unexpected end of input inside block");
      if (K == TokKind::RBrace) {
        if (!InsideBlock)
          return fail("unexpected '}'");
        return true;
      }
      if (!parseStatement())
        return false;
    }
  }

private:
  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at offset " + std::to_string(Lex.peek().Pos);
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (Lex.consumeIf(K))
      return true;
    return fail(std::string("expected ") + What);
  }

  bool parseBlock() {
    if (Depth == MaxParseDepth)
      return fail("blocks nested deeper than " +
                  std::to_string(MaxParseDepth) + " levels");
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    ++Depth;
    bool OK = parseStatements(/*InsideBlock=*/true);
    --Depth;
    return OK && expect(TokKind::RBrace, "'}'");
  }

  /// cond := "*" | atom | "!" atom.  Returns true on success; sets
  /// \p Cond to nullopt for a non-deterministic branch.  Negated atoms are
  /// resolved through negateAtom; a non-negatable "!atom" is treated as a
  /// non-deterministic branch whose then-side still assumes nothing --
  /// sound, and the closest atomic approximation.
  bool parseCond(std::optional<Atom> &Cond, bool &Negated) {
    Negated = false;
    if (Lex.peek().Kind == TokKind::Star) {
      Lex.next();
      Cond = std::nullopt;
      return true;
    }
    if (Lex.consumeIf(TokKind::Bang))
      Negated = true;
    // Allow the conventional !(atom) parenthesization.
    bool Wrapped = Negated && Lex.consumeIf(TokKind::LParen);
    std::optional<Atom> A = parseAtomFrom(Ctx, Lex, Error);
    if (!A)
      return fail("malformed condition");
    if (Wrapped && !Lex.consumeIf(TokKind::RParen))
      return fail("expected ')' closing negated condition");
    Cond = *A;
    return true;
  }

  /// Applies the optional negation to a parsed condition, returning the
  /// atom to assume on the true branch (nullopt = assume nothing).
  std::optional<Atom> resolveCond(std::optional<Atom> Cond, bool Negated) {
    if (!Cond || !Negated)
      return Cond;
    return negateAtom(Ctx, *Cond); // nullopt when not expressible.
  }

  bool parseStatement() {
    Token T = Lex.peek();
    if (T.Kind != TokKind::Ident)
      return fail("expected a statement");
    B.markStatement(T.Pos);

    if (T.Text == "if") {
      Lex.next();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      std::optional<Atom> Cond;
      bool Negated;
      if (!parseCond(Cond, Negated))
        return false;
      if (!expect(TokKind::RParen, "')'"))
        return false;
      std::optional<Atom> ThenCond = resolveCond(Cond, Negated);
      // Body parsing happens inside builder callbacks; propagate failure
      // through OK.
      bool OK = true;
      auto ParseArm = [&]() {
        if (OK)
          OK = parseBlock();
      };
      bool HasElse = false;
      // Peek for else after the then-block: the builder needs to know both
      // arms, so parse lazily via callbacks in order.
      B.ifElse(
          ThenCond, [&]() { ParseArm(); },
          [&]() {
            if (!OK)
              return;
            if (Lex.peek().Kind == TokKind::Ident &&
                Lex.peek().Text == "else") {
              Lex.next();
              HasElse = true;
              OK = parseBlock();
            }
          });
      (void)HasElse;
      return OK;
    }

    if (T.Text == "while") {
      Lex.next();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      std::optional<Atom> Cond;
      bool Negated;
      if (!parseCond(Cond, Negated))
        return false;
      if (!expect(TokKind::RParen, "')'"))
        return false;
      std::optional<Atom> LoopCond = resolveCond(Cond, Negated);
      bool OK = true;
      B.loop(LoopCond, [&]() { OK = parseBlock(); });
      return OK;
    }

    if (T.Text == "assert" || T.Text == "assume") {
      bool IsAssert = T.Text == "assert";
      Lex.next();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      std::optional<Atom> A = parseAtomFrom(Ctx, Lex, Error);
      if (!A)
        return fail("malformed fact");
      if (!expect(TokKind::RParen, "')'") || !expect(TokKind::Semi, "';'"))
        return false;
      if (IsAssert) {
        B.assertFact(*A, "assert@" + std::to_string(T.Pos));
      } else {
        Conjunction C;
        C.add(*A);
        B.assume(C);
      }
      return true;
    }

    // Assignment: ident := expr ; or ident := * ;
    Lex.next();
    if (!expect(TokKind::Assign, "':='"))
      return false;
    if (Lex.peek().Kind == TokKind::Star) {
      Lex.next();
      if (!expect(TokKind::Semi, "';'"))
        return false;
      B.havoc(Ctx.mkVar(T.Text));
      return true;
    }
    std::optional<Term> Value = parseTermFrom(Ctx, Lex, Error);
    if (!Value)
      return fail("malformed assignment expression");
    if (!expect(TokKind::Semi, "';'"))
      return false;
    B.assign(Ctx.mkVar(T.Text), *Value);
    return true;
  }

  TermContext &Ctx;
  Lexer &Lex;
  ProgramBuilder &B;
  std::string &Error;
  unsigned Depth = 0; ///< Blocks open around the current statement.
};

} // namespace

std::optional<Program> cai::parseProgram(TermContext &Ctx,
                                         std::string_view Source,
                                         std::string *Error) {
  std::string Clean = stripComments(Source);
  Lexer Lex(Clean);
  ProgramBuilder B(Ctx);
  std::string Err;
  StatementParser SP(Ctx, Lex, B, Err);
  if (!SP.parseStatements(/*InsideBlock=*/false)) {
    if (Error)
      *Error = Err.empty() ? "parse error" : withLineInfo(std::move(Err), Source);
    return std::nullopt;
  }
  // Resolve recorded statement byte offsets to 1-based line/col against
  // the original source (stripComments preserves offsets) and stamp them
  // onto the program for diagnostics.
  std::vector<std::pair<NodeId, size_t>> Marks = B.statementOffsets();
  Program P = B.take();
  std::sort(Marks.begin(), Marks.end(),
            [](const auto &X, const auto &Y) { return X.second < Y.second; });
  size_t Line = 1, Col = 1, At = 0;
  for (const auto &[Node, Offset] : Marks) {
    for (; At < Offset && At < Source.size(); ++At) {
      if (Source[At] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
    }
    P.setNodeLoc(Node, SourceLoc{static_cast<uint32_t>(Line),
                                 static_cast<uint32_t>(Col)});
  }
  return P;
}
