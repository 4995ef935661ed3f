#include "sql/normalize.h"

#include <cctype>

#include "sql/lexer.h"

namespace prisma::sql {

StatusOr<NormalizedStatement> NormalizeStatement(const std::string& text) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  NormalizedStatement out;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kEnd) break;
    if (!out.fingerprint.empty()) out.fingerprint += ' ';
    switch (token.kind) {
      case TokenKind::kIdentifier: {
        // Identifiers are case-insensitive throughout the binder; fold so
        // "select Name" and "SELECT name" share a plan.
        for (char c : token.text) {
          out.fingerprint +=
              static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        break;
      }
      case TokenKind::kIntLiteral:
        out.fingerprint += '?';
        out.params.push_back(Value::Int(token.int_value));
        break;
      case TokenKind::kDoubleLiteral:
        out.fingerprint += '?';
        out.params.push_back(Value::Double(token.double_value));
        break;
      case TokenKind::kStringLiteral:
        out.fingerprint += '?';
        out.params.push_back(Value::String(token.text));
        break;
      case TokenKind::kSymbol:
        out.fingerprint += token.text;
        break;
      case TokenKind::kEnd:
        break;
    }
  }
  return out;
}

}  // namespace prisma::sql
