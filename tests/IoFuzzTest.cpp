//===- tests/IoFuzzTest.cpp - Adversarial inputs for the io layer -------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzz-style negative coverage for src/io/Json.cpp and ProblemIO: the
/// parsers face user-supplied files (and, since `morpheus serve`,
/// network-shaped stdin lines), so every malformed input must come back as
/// a clean error return — never a crash, hang, or uninitialized value.
/// Inputs here are the classic parser killers: truncations at every byte,
/// duplicate keys, huge and degenerate numbers, invalid UTF-8, deep
/// nesting, and deterministic random mutations of a valid document.
///
/// The traffic-log parser (bus/TrafficRecorder.h) gets the same
/// treatment: recorded logs cross machine boundaries before `morpheus
/// replay` consumes them, so parseTrafficRecord faces the identical
/// attacker surface.
///
//===----------------------------------------------------------------------===//

#include "bus/TrafficRecorder.h"
#include "io/Json.h"
#include "io/ProblemIO.h"
#include "io/TableIO.h"
#include "net/Protocol.h"
#include "service/Fingerprint.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace morpheus;

namespace {

const char *ValidProblemDoc = R"({
  "name": "fuzz_seed",
  "inputs": [{
    "name": "t",
    "columns": [{"name": "id", "type": "num"},
                {"name": "s", "type": "str"}],
    "rows": [[1, "a"], [2, "b"]]
  }],
  "output": {
    "columns": [{"name": "id", "type": "num"}],
    "rows": [[1], [2]]
  },
  "options": {"ordered_compare": false}
})";

/// Runs the whole pipeline an attacker-controlled string goes through:
/// parse, then (when it parses) problem extraction. Returns true when a
/// Problem came out the far end.
bool pipelineSurvives(std::string_view Text) {
  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Text, &Err);
  if (!Doc) {
    EXPECT_FALSE(Err.empty()) << "parse failure must explain itself";
    return false;
  }
  Err.clear();
  std::optional<Problem> P = problemFromJson(*Doc, &Err);
  if (!P) {
    EXPECT_FALSE(Err.empty()) << "schema failure must explain itself";
    return false;
  }
  return true;
}

TEST(JsonFuzz, TruncationAtEveryByteFailsCleanly) {
  std::string Doc = ValidProblemDoc;
  ASSERT_TRUE(pipelineSurvives(Doc));
  // Every strict prefix is structurally broken (the document ends in '}');
  // each must error out, not crash or accept.
  for (size_t Len = 0; Len != Doc.size(); ++Len)
    EXPECT_FALSE(pipelineSurvives(std::string_view(Doc).substr(0, Len)))
        << "prefix of length " << Len << " unexpectedly parsed";
}

TEST(JsonFuzz, TruncatedTokensFailCleanly) {
  for (const char *Text :
       {"tru", "fals", "nul", "\"unterminated", "\"esc\\", "\"u\\u12",
        "[1,", "[1", "{\"a\"", "{\"a\":", "{\"a\":1", "-", "+", ".",
        "1e", "nan", "inf", "[,1]", "{,}", "[1 2]",
        "{\"a\" 1}"}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Text, &Err)) << "accepted: " << Text;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(JsonFuzz, DuplicateKeysKeepFirstBinding) {
  // JSON leaves duplicate-key semantics open; ours is first-wins via
  // find(). What matters for robustness: parse succeeds deterministically.
  std::optional<JsonValue> V = parseJson(R"({"a": 1, "a": 2, "a": 3})");
  ASSERT_TRUE(V);
  const JsonValue *A = V->find("a");
  ASSERT_TRUE(A);
  EXPECT_EQ(A->Num, 1.0);
  EXPECT_EQ(V->Obj.size(), 3u); // all bindings preserved in document order

  // A duplicated "output" key in a problem doc must not confuse
  // extraction: the first binding is used.
  std::string Doc = R"({
    "inputs": [{"columns": [{"name": "a", "type": "num"}], "rows": [[1]]}],
    "output": {"columns": [{"name": "a", "type": "num"}], "rows": [[1]]},
    "output": {"columns": [{"name": "ZZZ", "type": "str"}], "rows": [["x"]]}
  })";
  std::optional<JsonValue> DocV = parseJson(Doc);
  ASSERT_TRUE(DocV);
  std::optional<Problem> P = problemFromJson(*DocV);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Output.schema()[0].Name, "a");
}

TEST(JsonFuzz, HugeAndDegenerateNumbers) {
  // Overflowing literals saturate to +/-inf (strtod semantics) rather than
  // failing; the pipeline must cope with the resulting non-finite cells.
  std::optional<JsonValue> Big = parseJson("1e999");
  ASSERT_TRUE(Big);
  EXPECT_TRUE(std::isinf(Big->Num));
  std::optional<JsonValue> Tiny = parseJson("-1e999");
  ASSERT_TRUE(Tiny);
  EXPECT_TRUE(std::isinf(Tiny->Num));
  EXPECT_TRUE(parseJson("1e-999")); // underflows to 0: fine

  // Underflow keeps its sign, and the smallest denormal is a value, not a
  // range error.
  std::optional<JsonValue> Zero = parseJson("1e-400");
  ASSERT_TRUE(Zero);
  EXPECT_EQ(Zero->Num, 0.0);
  EXPECT_FALSE(std::signbit(Zero->Num));
  std::optional<JsonValue> NegZero = parseJson("-1e-400");
  ASSERT_TRUE(NegZero);
  EXPECT_EQ(NegZero->Num, 0.0);
  EXPECT_TRUE(std::signbit(NegZero->Num));
  std::optional<JsonValue> Denormal = parseJson("4.9e-324");
  ASSERT_TRUE(Denormal);
  EXPECT_EQ(Denormal->Num, std::nextafter(0.0, 1.0));

  std::optional<JsonValue> Long =
      parseJson("[" + std::string(400, '9') + "]");
  ASSERT_TRUE(Long); // 400 digits: saturates, no overflow UB
  EXPECT_TRUE(std::isinf(Long->Arr[0].Num));
  // A 400-digit mantissa that is in range rounds correctly.
  std::optional<JsonValue> LongFrac =
      parseJson("0." + std::string(400, '3'));
  ASSERT_TRUE(LongFrac);
  EXPECT_EQ(LongFrac->Num, 1.0 / 3);
  std::optional<JsonValue> LongScaled =
      parseJson("1" + std::string(399, '0') + "e-399");
  ASSERT_TRUE(LongScaled);
  EXPECT_EQ(LongScaled->Num, 1.0);

  // Non-finite numbers write back as null (JSON has no inf literal), and
  // null is rejected as a num cell on re-read: a clean error, not a crash.
  JsonValue Row = JsonValue::array({JsonValue::number(INFINITY)});
  EXPECT_EQ(Row.dump(), "[null]");

  std::string Doc = R"({
    "inputs": [{"columns": [{"name": "a", "type": "num"}],
                "rows": [[1e999]]}],
    "output": {"columns": [{"name": "a", "type": "num"}], "rows": [[1]]}
  })";
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V);
  (void)problemFromJson(*V); // accept or reject — just never crash
}

TEST(JsonFuzz, InvalidUtf8BytesPassThroughOrFailCleanly) {
  // Raw 0x80-0xFF bytes inside strings: the parser is byte-oriented and
  // must neither crash nor mangle lengths.
  std::string Bad = "{\"a\": \"\xff\xfe\x80 x\"}";
  std::optional<JsonValue> V = parseJson(Bad);
  ASSERT_TRUE(V);
  const JsonValue *A = V->find("a");
  ASSERT_TRUE(A);
  EXPECT_EQ(A->Str.size(), 5u);

  // Stray continuation/invalid bytes outside a string are syntax errors.
  std::string Err;
  EXPECT_FALSE(parseJson("\xff", &Err));
  EXPECT_FALSE(Err.empty());
  // And a problem built from such a string cell round-trips through the
  // pipeline without crashing.
  std::string Doc = "{\"inputs\": [{\"columns\": [{\"name\": \"s\", "
                    "\"type\": \"str\"}], \"rows\": [[\"\xf0\x28\"]]}], "
                    "\"output\": {\"columns\": [{\"name\": \"s\", \"type\": "
                    "\"str\"}], \"rows\": [[\"\xf0\x28\"]]}}";
  EXPECT_TRUE(pipelineSurvives(Doc));
}

TEST(JsonFuzz, SurrogatePairsDecodeToOneCodePoint) {
  // Python's json.dumps escapes non-BMP characters as a surrogate pair by
  // default; the pair must decode to the same UTF-8 bytes as the raw text.
  std::optional<JsonValue> Escaped = parseJson(R"("x\ud83d\ude00y")");
  std::optional<JsonValue> Raw = parseJson("\"x\xf0\x9f\x98\x80y\"");
  ASSERT_TRUE(Escaped);
  ASSERT_TRUE(Raw);
  EXPECT_EQ(Escaped->Str, "x\xf0\x9f\x98\x80y");
  EXPECT_EQ(Escaped->Str, Raw->Str);
  std::optional<JsonValue> Max = parseJson(R"("\udbff\udfff")");
  ASSERT_TRUE(Max);
  EXPECT_EQ(Max->Str, "\xf4\x8f\xbf\xbf"); // U+10FFFF

  // A surrogate that is not half of a pair has no UTF-8 form.
  for (const char *Lone :
       {R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\n")", R"("\ud83dA")",
        R"("\ud83d\ud83d")", R"("\ude00")", R"("\ude00\ud83d")"}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Lone, &Err)) << Lone;
    EXPECT_NE(Err.find("invalid \\u escape"), std::string::npos) << Err;
  }
  // A pair cut short reports the truncation, like any \u escape.
  std::string Err;
  EXPECT_FALSE(parseJson(R"("\ud83d\ude0)", &Err));
  EXPECT_NE(Err.find("truncated \\u escape"), std::string::npos) << Err;

  // The same problem sent either way is the same cache key.
  auto ProblemDoc = [](const std::string &Cell) {
    return R"({"inputs": [{"columns": [{"name": "s", "type": "str"}],
                           "rows": [[")" +
           Cell + R"("], ["b"]]}],
               "output": {"columns": [{"name": "s", "type": "str"}],
                          "rows": [[")" +
           Cell + R"("]]}})";
  };
  std::optional<JsonValue> EscapedDoc =
      parseJson(ProblemDoc(R"(smile \ud83d\ude00)"));
  std::optional<JsonValue> RawDoc =
      parseJson(ProblemDoc("smile \xf0\x9f\x98\x80"));
  ASSERT_TRUE(EscapedDoc);
  ASSERT_TRUE(RawDoc);
  std::optional<Problem> EscapedP = problemFromJson(*EscapedDoc);
  std::optional<Problem> RawP = problemFromJson(*RawDoc);
  ASSERT_TRUE(EscapedP);
  ASSERT_TRUE(RawP);
  EngineOptions Opts;
  EXPECT_EQ(problemFingerprint(*EscapedP, Opts),
            problemFingerprint(*RawP, Opts));
}

TEST(JsonFuzz, DeepNestingIsBoundedNotStackOverflow) {
  std::string Deep(100000, '[');
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos);

  std::string DeepObj;
  for (int I = 0; I != 5000; ++I)
    DeepObj += "{\"a\":";
  DeepObj += "1";
  EXPECT_FALSE(parseJson(DeepObj, &Err));
}

TEST(JsonFuzz, DeterministicMutationSweepNeverCrashes) {
  // Cheap deterministic fuzzing: single-byte mutations of a valid
  // document at positions/values driven by an LCG. Each mutant goes
  // through the full parse -> problemFromJson pipeline; we only assert
  // "no crash, errors explained" (pipelineSurvives checks messages).
  std::string Seed = ValidProblemDoc;
  uint64_t Lcg = 0x2545f4914f6cdd1dULL;
  auto Next = [&Lcg] {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return Lcg >> 33;
  };
  int Survived = 0;
  for (int I = 0; I != 2000; ++I) {
    std::string Mutant = Seed;
    switch (Next() % 3) {
    case 0: // flip one byte to an arbitrary value
      Mutant[Next() % Mutant.size()] = char(Next() % 256);
      break;
    case 1: // delete one byte
      Mutant.erase(Next() % Mutant.size(), 1);
      break;
    case 2: { // duplicate a span
      size_t At = Next() % Mutant.size();
      size_t Len = Next() % 16;
      Mutant.insert(At, Mutant.substr(At, Len));
      break;
    }
    }
    Survived += pipelineSurvives(Mutant);
  }
  // Sanity that the sweep exercised both sides: some mutants still parse
  // (e.g. a digit changed inside a cell), most break.
  EXPECT_GT(Survived, 0);
  EXPECT_LT(Survived, 2000);
}

//===----------------------------------------------------------------------===//
// ProblemIO schema negatives
//===----------------------------------------------------------------------===//

/// Asserts that \p Doc parses as JSON but is rejected as a Problem with a
/// non-empty schema error.
void expectSchemaError(const std::string &Doc) {
  std::string Err;
  std::optional<JsonValue> V = parseJson(Doc, &Err);
  ASSERT_TRUE(V) << Err << " for " << Doc;
  std::optional<Problem> P = problemFromJson(*V, &Err);
  EXPECT_FALSE(P) << "accepted: " << Doc;
  EXPECT_FALSE(Err.empty());
}

TEST(ProblemIoFuzz, StructuralSchemaViolationsAreRejected) {
  expectSchemaError("[]");
  expectSchemaError("null");
  expectSchemaError("{}");
  expectSchemaError(R"({"inputs": []})");
  expectSchemaError(R"({"inputs": 3, "output": {}})");
  expectSchemaError(R"({"inputs": [[]], "output": {}})");
  // Valid inputs but missing/broken output.
  std::string In = R"({"columns": [{"name": "a", "type": "num"}],
                       "rows": [[1]]})";
  expectSchemaError("{\"inputs\": [" + In + "]}");
  expectSchemaError("{\"inputs\": [" + In + "], \"output\": 7}");
  expectSchemaError("{\"inputs\": [" + In + "], \"output\": {\"columns\": "
                    "[{\"name\": \"a\", \"type\": \"num\"}], \"rows\": "
                    "[[1, 2]]}}"); // ragged row
  // Cell/type mismatches and malformed column specs inside a table.
  expectSchemaError("{\"inputs\": [{\"columns\": [{\"name\": \"a\", "
                    "\"type\": \"num\"}], \"rows\": [[\"str\"]]}], "
                    "\"output\": " + In + "}");
  expectSchemaError("{\"inputs\": [{\"columns\": [{\"name\": \"a\", "
                    "\"type\": \"vector\"}], \"rows\": [[1]]}], "
                    "\"output\": " + In + "}");
  // Bad options payloads.
  expectSchemaError("{\"inputs\": [" + In + "], \"output\": " + In +
                    ", \"options\": 5}");
  expectSchemaError("{\"inputs\": [" + In + "], \"output\": " + In +
                    ", \"options\": {\"ordered_compare\": \"yes\"}}");
}

TEST(ProblemIoFuzz, LoadProblemOnMissingFileReportsError) {
  std::string Err;
  EXPECT_FALSE(loadProblem("/nonexistent/morpheus_fuzz.json", &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Traffic-log parser (bus/TrafficRecorder.h)
//===----------------------------------------------------------------------===//

/// A well-formed recorder line (64-bit fields string-encoded, the way
/// the recorder emits them; the seed test pins that it parses and
/// round-trips through trafficRecordToLine).
std::string validTrafficLine() {
  return std::string("{\"v\":1,\"job\":3,\"fp\":\"0x9c0ffee123456789\","
                     "\"exfp\":\"0x4abad1dea5e5e5e5\",\"arrival_ns\":"
                     "\"18200\",\"completed_ns\":\"905000\",\"priority\":-2,"
                     "\"deadline_ms\":1500,\"outcome\":\"solved\","
                     "\"source\":\"solve\",\"program\":\"(select x0 id)\","
                     "\"problem\":") +
         ValidProblemDoc + "}";
}

TEST(TrafficFuzz, SeedLineParsesAndRoundTrips) {
  std::string Err;
  std::optional<TrafficRecord> R = parseTrafficRecord(validTrafficLine(), &Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Job, 3u);
  EXPECT_EQ(R->Fp, 0x9c0ffee123456789ULL);
  EXPECT_EQ(R->ExFp, 0x4abad1dea5e5e5e5ULL);
  EXPECT_EQ(R->ArrivalNs, 18200u);
  EXPECT_EQ(R->CompletedNs, 905000u);
  EXPECT_EQ(R->Priority, -2);
  EXPECT_EQ(R->DeadlineMs, 1500u);
  EXPECT_EQ(R->Outcome, "solved");
  EXPECT_EQ(R->Program, "(select x0 id)");
  ASSERT_TRUE(R->Prob);

  // Serialize and reparse: the inverse pair is exact on every field.
  std::optional<TrafficRecord> Again =
      parseTrafficRecord(trafficRecordToLine(*R), &Err);
  ASSERT_TRUE(Again) << Err;
  EXPECT_EQ(Again->Fp, R->Fp);
  EXPECT_EQ(Again->Priority, R->Priority);
  EXPECT_EQ(Again->Program, R->Program);
}

TEST(TrafficFuzz, TruncationAtEveryByteFailsCleanly) {
  std::string Line = validTrafficLine();
  // Every strict prefix is broken (the line closes with '}'): either
  // invalid JSON or a schema with required keys missing. Never a crash,
  // never a silent accept, always an explanation.
  for (size_t Len = 0; Len != Line.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(
        parseTrafficRecord(std::string_view(Line).substr(0, Len), &Err))
        << "prefix of length " << Len << " unexpectedly parsed";
    EXPECT_FALSE(Err.empty()) << "no error for prefix of length " << Len;
  }
}

TEST(TrafficFuzz, DuplicateKeysAreDeterministicFirstWins) {
  // Duplicate a scalar key: our JSON layer binds first-wins, and the
  // record parser must inherit that determinism.
  std::string Line = validTrafficLine();
  size_t At = Line.find("\"job\":3");
  ASSERT_NE(At, std::string::npos);
  Line.insert(At, "\"job\":99,");
  std::string Err;
  std::optional<TrafficRecord> R = parseTrafficRecord(Line, &Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Job, 99u); // the first binding
}

TEST(TrafficFuzz, InvalidUtf8InStringsPassesThroughOrFailsCleanly) {
  // Raw invalid bytes inside the program text: byte-oriented pass-through.
  std::string Line = validTrafficLine();
  size_t At = Line.find("(select x0 id)");
  ASSERT_NE(At, std::string::npos);
  Line.replace(At, 14, "\xff\xfe\x80(x)");
  std::string Err;
  std::optional<TrafficRecord> R = parseTrafficRecord(Line, &Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Program.size(), 6u);

  // The same bytes outside any string are a syntax error, not a crash.
  EXPECT_FALSE(parseTrafficRecord("\xff\xfe{\"v\":1}", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(TrafficFuzz, SchemaViolationsAreRejectedWithMessages) {
  std::string Seed = validTrafficLine();
  auto Reject = [](const std::string &Line, const char *What) {
    std::string Err;
    EXPECT_FALSE(parseTrafficRecord(Line, &Err)) << "accepted: " << What;
    EXPECT_FALSE(Err.empty()) << "no message for: " << What;
  };
  Reject("null", "non-object");
  Reject("[]", "array");
  Reject("{}", "empty object");
  {
    std::string L = Seed;
    size_t At = L.find("\"v\":1");
    L.replace(At, 5, "\"v\":2");
    Reject(L, "unknown version");
  }
  {
    std::string L = Seed;
    size_t At = L.find("\"fp\":\"0x9c0ffee123456789\"");
    L.replace(At, 25, "\"fp\":\"0xNOTHEX\"");
    Reject(L, "malformed hex fingerprint");
  }
  {
    std::string L = Seed;
    size_t At = L.find("\"outcome\":\"solved\"");
    L.replace(At, 18, "\"outcome\":17");
    Reject(L, "non-string outcome");
  }
  {
    std::string L = Seed;
    size_t At = L.find(",\"problem\":");
    L.resize(At);
    L += ",\"problem\":{}}";
    Reject(L, "problem failing its own schema");
  }
}

/// Regression: numeric fields were cast double -> integer unchecked, so
/// "job": 1e999 (parsed as inf) or "priority": 1e30 was undefined
/// behaviour. Non-finite, fractional and out-of-range numbers must be
/// rejected with a message; whole in-range values still parse.
TEST(TrafficFuzz, NonIntegralAndOutOfRangeNumbersAreRejected) {
  std::string Seed = validTrafficLine();
  auto Patched = [&](const std::string &From, const std::string &To) {
    std::string L = Seed;
    size_t At = L.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    L.replace(At, From.size(), To);
    return L;
  };
  for (const char *Bad : {"1e999", "-1e999", "1e30", "18446744073709551616",
                          "-1", "2.5", "1e-3"}) {
    std::string Err;
    EXPECT_FALSE(
        parseTrafficRecord(Patched("\"job\":3", "\"job\":" + std::string(Bad)),
                           &Err))
        << "job " << Bad;
    EXPECT_FALSE(Err.empty());
    Err.clear();
    EXPECT_FALSE(parseTrafficRecord(
        Patched("\"deadline_ms\":1500", "\"deadline_ms\":" + std::string(Bad)),
        &Err))
        << "deadline_ms " << Bad;
    EXPECT_FALSE(Err.empty());
  }
  for (const char *Bad : {"1e999", "-1e999", "1e30", "-1e30", "0.5",
                          "9223372036854775808"}) {
    std::string Err;
    EXPECT_FALSE(parseTrafficRecord(
        Patched("\"priority\":-2", "\"priority\":" + std::string(Bad)),
        &Err))
        << "priority " << Bad;
    EXPECT_FALSE(Err.empty());
  }

  std::string Err;
  std::optional<TrafficRecord> R = parseTrafficRecord(
      Patched("\"job\":3", "\"job\":9007199254740992"), &Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Job, 9007199254740992u); // 2^53: whole, in range
  R = parseTrafficRecord(
      Patched("\"priority\":-2", "\"priority\":-9223372036854775808"), &Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(R->Priority, INT64_MIN);
}

TEST(TrafficFuzz, DeterministicMutationSweepNeverCrashes) {
  // The same LCG-driven single-byte mutation harness the problem pipeline
  // gets, aimed at the record parser. Only invariant: no crash, every
  // rejection explained.
  std::string Seed = validTrafficLine();
  uint64_t Lcg = 0x9e3779b97f4a7c15ULL;
  auto Next = [&Lcg] {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return Lcg >> 33;
  };
  int Survived = 0;
  for (int I = 0; I != 2000; ++I) {
    std::string Mutant = Seed;
    switch (Next() % 3) {
    case 0:
      Mutant[Next() % Mutant.size()] = char(Next() % 256);
      break;
    case 1:
      Mutant.erase(Next() % Mutant.size(), 1);
      break;
    case 2: {
      size_t At = Next() % Mutant.size();
      Mutant.insert(At, Mutant.substr(At, Next() % 16));
      break;
    }
    }
    std::string Err;
    std::optional<TrafficRecord> R = parseTrafficRecord(Mutant, &Err);
    if (R)
      ++Survived;
    else
      EXPECT_FALSE(Err.empty());
  }
  // Both sides exercised: a digit flipped inside a timestamp still
  // parses; a structural break does not.
  EXPECT_GT(Survived, 0);
  EXPECT_LT(Survived, 2000);
}

//===----------------------------------------------------------------------===//
// Serve request numbers (net/Protocol.h)
//===----------------------------------------------------------------------===//

/// Regression: a positive deadline_ms below 1 truncated to 0 ms, which
/// means "no deadline" — the most urgent request became the most patient.
/// It rounds up to 1 ms; zero, negative and non-numeric mean none.
TEST(ServeFuzz, SubMillisecondDeadlineRoundsUpToOneMillisecond) {
  auto DeadlineOf = [](const std::string &Value) {
    ServeRequest R = parseServeRequest(std::string("{\"problem\":") +
                                           ValidProblemDoc +
                                           ",\"deadline_ms\":" + Value + "}",
                                       1);
    EXPECT_TRUE(R.Error.empty()) << R.Error;
    return R.Deadline.count();
  };
  EXPECT_EQ(DeadlineOf("0.5"), 1);
  EXPECT_EQ(DeadlineOf("1e-300"), 1);
  EXPECT_EQ(DeadlineOf("0.999"), 1);
  EXPECT_EQ(DeadlineOf("1.5"), 1);
  EXPECT_EQ(DeadlineOf("250"), 250);
  EXPECT_EQ(DeadlineOf("1e999"), 0); // non-finite: ignored, as before
  EXPECT_EQ(DeadlineOf("1e12"), 86400000); // capped at one day
  EXPECT_EQ(DeadlineOf("0"), 0);
  EXPECT_EQ(DeadlineOf("-3"), 0);
  EXPECT_EQ(DeadlineOf("\"soon\""), 0);
}

} // namespace
