//===- io/Json.cpp - Minimal JSON value, parser and writer --------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "io/Json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace morpheus;

JsonValue JsonValue::boolean(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}

JsonValue JsonValue::number(double V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Num = V;
  return J;
}

JsonValue JsonValue::string(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}

JsonValue JsonValue::array(std::vector<JsonValue> V) {
  JsonValue J;
  J.K = Kind::Array;
  J.Arr = std::move(V);
  return J;
}

JsonValue JsonValue::object() {
  JsonValue J;
  J.K = Kind::Object;
  return J;
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Val] : Obj)
    if (Name == Key)
      return &Val;
  return nullptr;
}

void JsonValue::set(std::string Key, JsonValue V) {
  K = Kind::Object;
  for (auto &[Name, Val] : Obj) {
    if (Name == Key) {
      Val = std::move(V);
      return;
    }
  }
  Obj.emplace_back(std::move(Key), std::move(V));
}

//===----------------------------------------------------------------------===//
// Number text
//===----------------------------------------------------------------------===//

namespace {

/// Parses all of [First, Last) as a double with strtod's semantics: the
/// correctly rounded value, with overflow saturating to +/-inf and
/// underflow going to a denormal or signed zero. False unless every byte
/// is consumed. from_chars does the work; it reports out-of-range results
/// without a value, so those few go through strtod.
bool parseDouble(const char *First, const char *Last, double &Out) {
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  if (Ec == std::errc::result_out_of_range) {
    std::string Copy(First, Last);
    char *End = nullptr;
    Out = std::strtod(Copy.c_str(), &End);
    return End == Copy.c_str() + Copy.size();
  }
  return Ec == std::errc() && Ptr == Last;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void writeEscaped(std::string &Out, std::string_view S) {
  Out += '"';
  // Bytes that need no escape are copied in runs.
  size_t Run = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      static constexpr char Hex[] = "0123456789abcdef";
      const char Esc[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]};
      Out.append(Esc, sizeof(Esc));
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
  Out += '"';
}

void writeNumber(std::string &Out, double N) {
  // JSON has no NaN/Infinity literal; emit null (the reader then reports
  // a clean type error instead of choking on bare `nan`).
  if (!std::isfinite(N)) {
    Out += "null";
    return;
  }
  // Integral doubles print without an exponent or trailing zeros, matching
  // Value::toString so table cells round-trip textually. to_chars is
  // specified to produce printf's bytes: this is "%.0f", and below "%.*g".
  char Buf[40];
  char *End = Buf;
  if (N == std::floor(N) && std::fabs(N) < 1e15) {
    End = std::to_chars(Buf, Buf + sizeof(Buf), N, std::chars_format::fixed, 0)
              .ptr;
  } else {
    // Shortest precision that parses back to exactly N.
    for (int Prec = 15; Prec <= 17; ++Prec) {
      End = std::to_chars(Buf, Buf + sizeof(Buf), N,
                          std::chars_format::general, Prec)
                .ptr;
      double Back;
      if (parseDouble(Buf, End, Back) && Back == N)
        break;
    }
  }
  Out.append(Buf, End);
}

void writeValue(std::string &Out, const JsonValue &V, unsigned Indent,
                unsigned Depth) {
  auto NewlineAndPad = [&](unsigned D) {
    if (Indent == 0)
      return;
    Out += '\n';
    Out.append(size_t(Indent) * D, ' ');
  };

  switch (V.K) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.B ? "true" : "false";
    break;
  case JsonValue::Kind::Number:
    writeNumber(Out, V.Num);
    break;
  case JsonValue::Kind::String:
    writeEscaped(Out, V.Str);
    break;
  case JsonValue::Kind::Array: {
    if (V.Arr.empty()) {
      Out += "[]";
      break;
    }
    // Arrays of scalars stay on one line even when pretty-printing; table
    // rows read much better that way.
    bool AllScalar = true;
    for (const JsonValue &E : V.Arr)
      if (E.isArray() || E.isObject())
        AllScalar = false;
    Out += '[';
    for (size_t I = 0; I != V.Arr.size(); ++I) {
      if (I)
        Out += Indent && AllScalar ? ", " : ",";
      if (!AllScalar)
        NewlineAndPad(Depth + 1);
      writeValue(Out, V.Arr[I], Indent, Depth + 1);
    }
    if (!AllScalar)
      NewlineAndPad(Depth);
    Out += ']';
    break;
  }
  case JsonValue::Kind::Object: {
    if (V.Obj.empty()) {
      Out += "{}";
      break;
    }
    Out += '{';
    for (size_t I = 0; I != V.Obj.size(); ++I) {
      if (I)
        Out += ',';
      NewlineAndPad(Depth + 1);
      writeEscaped(Out, V.Obj[I].first);
      Out += Indent ? ": " : ":";
      writeValue(Out, V.Obj[I].second, Indent, Depth + 1);
    }
    NewlineAndPad(Depth);
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string JsonValue::dump(unsigned Indent) const {
  std::string Out;
  writeValue(Out, *this, Indent, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// The bytes isspace accepts in the C locale: space and \t \n \v \f \r.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// Appends code point \p Code (at most U+10FFFF) as UTF-8.
void appendUtf8(std::string &Out, unsigned Code) {
  if (Code < 0x80) {
    Out += char(Code);
  } else if (Code < 0x800) {
    Out += char(0xC0 | (Code >> 6));
    Out += char(0x80 | (Code & 0x3F));
  } else if (Code < 0x10000) {
    Out += char(0xE0 | (Code >> 12));
    Out += char(0x80 | ((Code >> 6) & 0x3F));
    Out += char(0x80 | (Code & 0x3F));
  } else {
    Out += char(0xF0 | (Code >> 18));
    Out += char(0x80 | ((Code >> 12) & 0x3F));
    Out += char(0x80 | ((Code >> 6) & 0x3F));
    Out += char(0x80 | (Code & 0x3F));
  }
}

/// Recursive descent that parses each value straight into its place in
/// the tree. Every method returns false after recording the first error.
class Parser {
public:
  Parser(std::string_view Text, std::string *Err) : Text(Text), Err(Err) {}

  bool parseDocument(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
  /// Containers may nest this deep; beyond it parsing fails cleanly
  /// instead of overflowing the stack on adversarial input.
  static constexpr unsigned MaxDepth = 200;
  unsigned Depth = 0;

  bool fail(const std::string &Msg) {
    if (Err && Err->empty())
      *Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && isSpace(Text[Pos]))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth >= MaxDepth)
        return fail("nesting deeper than " + std::to_string(MaxDepth) +
                    " levels");
      ++Depth;
      bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    }
    if (C == 't' || C == 'f')
      return parseKeyword(Out);
    if (C == 'n')
      return parseNull();
    if (C == '-' || isDigit(C))
      return parseNumber(Out);
    return fail(std::string("unexpected character '") + C + "'");
  }

  bool parseKeyword(JsonValue &Out) {
    Out.K = JsonValue::Kind::Bool;
    if (Text.substr(Pos, 4) == "true") {
      Pos += 4;
      Out.B = true;
      return true;
    }
    if (Text.substr(Pos, 5) == "false") {
      Pos += 5;
      return true;
    }
    return fail("invalid keyword");
  }

  bool parseNull() {
    if (Text.substr(Pos, 4) == "null") {
      Pos += 4;
      return true;
    }
    return fail("invalid keyword");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    consume('-');
    while (Pos < Text.size() &&
           (isDigit(Text[Pos]) || Text[Pos] == '.' || Text[Pos] == 'e' ||
            Text[Pos] == 'E' || Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    Out.K = JsonValue::Kind::Number;
    if (!parseDouble(Text.data() + Start, Text.data() + Pos, Out.Num)) {
      Pos = Start;
      return fail("malformed number");
    }
    return true;
  }

  /// Reads the four hex digits of a \u escape.
  bool parseHex4(unsigned &Code) {
    Code = 0;
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    for (int I = 0; I != 4; ++I) {
      char H = Text[Pos++];
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code += unsigned(H - '0');
      else if (H >= 'a' && H <= 'f')
        Code += unsigned(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Code += unsigned(H - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    return true;
  }

  /// Decodes a \u escape (Pos is past the 'u'). A code point above U+FFFF
  /// arrives as a high/low surrogate pair of escapes; a lone surrogate
  /// has no UTF-8 encoding and is rejected.
  bool parseUnicodeEscape(std::string &Out) {
    unsigned Code;
    if (!parseHex4(Code))
      return false;
    if (Code >= 0xDC00 && Code <= 0xDFFF)
      return fail("invalid \\u escape");
    if (Code >= 0xD800 && Code <= 0xDBFF) {
      if (Text.substr(Pos, 2) != "\\u")
        return fail("invalid \\u escape");
      Pos += 2;
      unsigned Low;
      if (!parseHex4(Low))
        return false;
      if (Low < 0xDC00 || Low > 0xDFFF)
        return fail("invalid \\u escape");
      Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
    }
    appendUtf8(Out, Code);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    while (true) {
      // Everything up to the next quote or backslash is literal.
      size_t Run = Pos;
      while (Run < Text.size() && Text[Run] != '"' && Text[Run] != '\\')
        ++Run;
      Out.append(Text.data() + Pos, Run - Pos);
      Pos = Run;
      if (Pos >= Text.size())
        return fail("unterminated string");
      if (Text[Pos++] == '"')
        return true;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u':
        if (!parseUnicodeEscape(Out))
          return false;
        break;
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseArray(JsonValue &Out) {
    consume('[');
    Out.K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return true;
    // Most containers are short (a table row, a column spec): room for
    // four members saves the 1 -> 2 -> 4 regrowth and its moves.
    Out.Arr.reserve(4);
    while (true) {
      skipWs();
      if (!parseValue(Out.Arr.emplace_back()))
        return false;
      skipWs();
      if (consume(']'))
        return true;
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue &Out) {
    consume('{');
    Out.K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return true;
    Out.Obj.reserve(4); // as in parseArray
    while (true) {
      skipWs();
      auto &Member = Out.Obj.emplace_back();
      if (!parseString(Member.first))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWs();
      if (!parseValue(Member.second))
        return false;
      skipWs();
      if (consume('}'))
        return true;
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }
};

} // namespace

std::optional<JsonValue> morpheus::parseJson(std::string_view Text,
                                             std::string *Err) {
  if (Err)
    Err->clear();
  std::optional<JsonValue> Doc(std::in_place);
  if (!Parser(Text, Err).parseDocument(*Doc))
    Doc.reset();
  return Doc;
}
