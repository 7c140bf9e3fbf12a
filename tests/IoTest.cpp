//===- tests/IoTest.cpp - Serialization subsystem -----------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers src/io: the JSON parser/writer, CSV and JSON table round-trips
/// with malformed-input error paths, the JSON problem format, and — the
/// acceptance bar for program serialization — the s-expression
/// print -> parse round-trip over every ground-truth program of both
/// benchmark suites (all 108 tasks).
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "io/TableIO.h"
#include "net/Protocol.h"
#include "suite/Task.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <random>

using namespace morpheus;

namespace {

/// Every standard component and value transformer, so any suite ground
/// truth parses regardless of which library its task uses.
ComponentLibrary fullLibrary() {
  ComponentLibrary Lib;
  Lib.TableTransformers = StandardComponents::get().all();
  Lib.ValueTransformers = StandardValueOps::get().all();
  return Lib;
}

Table sampleTable() {
  return makeTable({{"id", CellType::Num},
                    {"name", CellType::Str},
                    {"score", CellType::Num}},
                   {{num(1), str("Alice"), num(3.5)},
                    {num(2), str("Bob, Jr."), num(-2)},
                    {num(3), str("say \"hi\""), num(0.25)}});
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsArraysObjects) {
  std::string Err;
  std::optional<JsonValue> V =
      parseJson(R"({"a": [1, -2.5, "x\n", true, null], "b": {}})", &Err);
  ASSERT_TRUE(V) << Err;
  const JsonValue *A = V->find("a");
  ASSERT_TRUE(A && A->isArray());
  ASSERT_EQ(A->Arr.size(), 5u);
  EXPECT_EQ(A->Arr[0].Num, 1);
  EXPECT_EQ(A->Arr[1].Num, -2.5);
  EXPECT_EQ(A->Arr[2].Str, "x\n");
  EXPECT_TRUE(A->Arr[3].B);
  EXPECT_TRUE(A->Arr[4].isNull());
  ASSERT_TRUE(V->find("b"));
  EXPECT_TRUE(V->find("b")->isObject());
}

TEST(Json, DumpParsesBack) {
  JsonValue Obj = JsonValue::object();
  Obj.set("nums", JsonValue::array({JsonValue::number(1),
                                    JsonValue::number(0.125)}));
  Obj.set("text", JsonValue::string("quote \" backslash \\ newline \n"));
  for (unsigned Indent : {0u, 2u}) {
    std::string Err;
    std::optional<JsonValue> Back = parseJson(Obj.dump(Indent), &Err);
    ASSERT_TRUE(Back) << Err;
    EXPECT_EQ(Back->find("text")->Str, Obj.find("text")->Str);
    EXPECT_EQ(Back->find("nums")->Arr[1].Num, 0.125);
  }
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\" 1}", "\"unterminated", "tru", "1 2",
        "{\"a\": 1,}", "[1, \"\\q\"]"}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Bad, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(Json, RejectsPathologicalNestingCleanly) {
  // Deep nesting must produce an error, not a stack-overflow crash.
  std::string Deep(100000, '[');
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  // JSON has no NaN/Infinity literal; the writer must stay parseable.
  EXPECT_EQ(JsonValue::number(std::nan("")).dump(), "null");
  EXPECT_EQ(JsonValue::number(HUGE_VAL).dump(), "null");
}

// The writer's exact bytes are a contract: served responses, traffic logs
// and golden files are compared byte for byte, so a formatting drift must
// fail here rather than as a distant golden diff.

TEST(Json, NumberBytesArePinned) {
  const std::pair<double, const char *> Ladder[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {0.1, "0.1"},
      {1.0 / 3, "0.3333333333333333"},
      {1e-7, "1e-07"},
      {123456.789, "123456.789"},
      {999999999999999.0, "999999999999999"},
      {1e15, "1e+15"},
      {1e21, "1e+21"},
      {9007199254740993.0, "9007199254740992"}, // 2^53 + 1 rounds to 2^53
      {5e-324, "4.94065645841247e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
  };
  for (const auto &[N, Bytes] : Ladder)
    EXPECT_EQ(JsonValue::number(N).dump(), Bytes) << Bytes;
}

TEST(Json, StringEscapeBytesArePinned) {
  std::string S = "q\" b\\ n\n t\t r\r b\b f\f z\x01\x1f / \x7f "
                  "caf\xc3\xa9 \xe6\x97\xa5 \xf0\x9f\x98\x80";
  EXPECT_EQ(JsonValue::string(S).dump(),
            R"("q\" b\\ n\n t\t r\r b\u0008 f\u000c z\u0001\u001f / )"
            "\x7f caf\xc3\xa9 \xe6\x97\xa5 \xf0\x9f\x98\x80\"");
}

TEST(Json, PrettyAndCompactBytesArePinned) {
  std::optional<JsonValue> V = parseJson(
      R"({"name":"t","rows":[[1,"a"],[2.5,null]],"flags":[true,false],)"
      R"("empty":[],"opts":{}})");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->dump(), R"({"name":"t","rows":[[1,"a"],[2.5,null]],)"
                       R"("flags":[true,false],"empty":[],"opts":{}})");
  EXPECT_EQ(V->dump(2), "{\n"
                        "  \"name\": \"t\",\n"
                        "  \"rows\": [\n"
                        "    [1, \"a\"],\n"
                        "    [2.5, null]\n"
                        "  ],\n"
                        "  \"flags\": [true, false],\n"
                        "  \"empty\": [],\n"
                        "  \"opts\": {}\n"
                        "}");
}

TEST(Json, ServeResponseLineBytesArePinned) {
  ServeResponse R;
  R.Id = JsonValue::string("req-7");
  R.Name = "C3-01";
  R.OutcomeStr = "solved";
  R.SourceStr = "cache-hit";
  R.Seconds = 0.0123;
  R.QueueMs = 0.25;
  R.SolveMs = 0;
  R.HasProgram = true;
  R.ProgramR = "df1 <- filter(input1, name == \"Bob, Jr.\")";
  R.ProgramSexp = "(filter (in 0) name == \"Bob, Jr.\")";
  R.Hypotheses = 12;
  R.CandidatesChecked = 3456;
  R.Worker = 1;
  EXPECT_EQ(serveResponseLine(R),
            R"J({"id":"req-7","name":"C3-01","outcome":"solved",)J"
            R"J("source":"cache-hit","seconds":0.0123,"queue_ms":0.25,)J"
            R"J("solve_ms":0,"program":{"r":"df1 <- filter(input1, name == )J"
            R"J(\"Bob, Jr.\")","sexp":"(filter (in 0) name == \"Bob, Jr.\")"},)J"
            R"J("stats":{"hypotheses":12,"candidates_checked":3456},"worker":1})J");
}

TEST(Json, NumbersParseBackBitIdentical) {
  // Random bit patterns cover denormals and every exponent; the second
  // half are short decimals, the values tables actually hold.
  std::mt19937_64 Rng(20171);
  for (int I = 0; I != 10000; ++I) {
    double D;
    if (I % 2 == 0) {
      uint64_t Bits = Rng();
      std::memcpy(&D, &Bits, sizeof(D));
      if (!std::isfinite(D))
        continue;
    } else {
      D = double(int64_t(Rng() % 2000001) - 1000000) / 1000.0;
    }
    std::string Text = JsonValue::number(D).dump();
    std::optional<JsonValue> Back = parseJson(Text);
    ASSERT_TRUE(Back) << Text;
    EXPECT_EQ(std::memcmp(&Back->Num, &D, sizeof(D)), 0) << Text;
  }
}

//===----------------------------------------------------------------------===//
// CSV
//===----------------------------------------------------------------------===//

TEST(Csv, RoundTripsTypesAndQuoting) {
  Table T = sampleTable();
  std::string Csv = writeCsv(T);
  std::string Err;
  std::optional<Table> Back = parseCsv(Csv, &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->schema(), T.schema()); // names and inferred types
  EXPECT_TRUE(Back->equalsOrdered(T));
}

TEST(Csv, NumericLookingStringsStayStrings) {
  // writeCsv quotes string cells, and quoted cells are excluded from
  // numeric inference — so the string "42" (or "007", which would even
  // change value) survives a round-trip typed and intact.
  Table T = makeTable({{"code", CellType::Str}, {"n", CellType::Num}},
                      {{str("42"), num(42)}, {str("007"), num(7)}});
  std::string Err;
  std::optional<Table> Back = parseCsv(writeCsv(T), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->schema(), T.schema());
  EXPECT_TRUE(Back->equalsOrdered(T));
}

TEST(Csv, ParsesQuotedFieldsWithEmbeddedStructure) {
  std::string Err;
  std::optional<Table> T = parseCsv(
      "name,note\nAlice,\"line1\nline2\"\n\"B,ob\",\"he said \"\"hi\"\"\"\n",
      &Err);
  ASSERT_TRUE(T) << Err;
  ASSERT_EQ(T->numRows(), 2u);
  EXPECT_EQ(T->at(0, 1).strVal(), "line1\nline2");
  EXPECT_EQ(T->at(1, 0).strVal(), "B,ob");
  EXPECT_EQ(T->at(1, 1).strVal(), "he said \"hi\"");
}

TEST(Csv, InfersNumericColumnsOnlyWhenEveryCellParses) {
  std::optional<Table> T = parseCsv("a,b\n1,2\n3,x\n");
  ASSERT_TRUE(T);
  EXPECT_EQ(T->schema()[0].Type, CellType::Num);
  EXPECT_EQ(T->schema()[1].Type, CellType::Str);
}

TEST(Csv, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseCsv("", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseCsv("a,b\n1\n", &Err)); // ragged row
  EXPECT_FALSE(parseCsv("a,b\n\"unterminated,1\n", &Err));
}

//===----------------------------------------------------------------------===//
// JSON tables
//===----------------------------------------------------------------------===//

TEST(JsonTable, RoundTrips) {
  Table T = sampleTable();
  std::string Err;
  std::optional<Table> Back = tableFromJson(tableToJson(T), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->schema(), T.schema());
  EXPECT_TRUE(Back->equalsOrdered(T));
}

TEST(JsonTable, RejectsSchemaViolations) {
  auto Check = [](const char *Doc) {
    std::string Err;
    std::optional<JsonValue> V = parseJson(Doc);
    ASSERT_TRUE(V) << Doc;
    EXPECT_FALSE(tableFromJson(*V, &Err)) << Doc;
    EXPECT_FALSE(Err.empty()) << Doc;
  };
  Check(R"([1, 2])");                                     // not an object
  Check(R"({"rows": []})");                               // no columns
  Check(R"({"columns": [], "rows": []})");                // empty columns
  Check(R"({"columns": [{"name": "a", "type": "bool"}], "rows": []})");
  Check(R"({"columns": [{"name": "a", "type": "num"}], "rows": [[1, 2]]})");
  Check(R"({"columns": [{"name": "a", "type": "num"}], "rows": [["x"]]})");
  Check(R"({"columns": [{"name": "a", "type": "str"}], "rows": [[1]]})");
}

//===----------------------------------------------------------------------===//
// Problem files
//===----------------------------------------------------------------------===//

TEST(ProblemJson, RoundTripsIncludingNamesAndOptions) {
  Problem P;
  P.Name = "roundtrip";
  P.Description = "two inputs, ordered compare";
  P.Inputs = {sampleTable(), makeTable({{"k", CellType::Num}}, {{num(7)}})};
  P.InputNames = {"left", ""};
  P.Output = makeTable({{"k", CellType::Num}}, {{num(7)}});
  P.OrderedCompare = true;

  std::string Err;
  std::optional<Problem> Back = problemFromJson(problemToJson(P), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Name, P.Name);
  EXPECT_EQ(Back->Description, P.Description);
  ASSERT_EQ(Back->Inputs.size(), 2u);
  EXPECT_TRUE(Back->Inputs[0].equalsOrdered(P.Inputs[0]));
  EXPECT_EQ(Back->inputNames(),
            (std::vector<std::string>{"left", "x1"}));
  EXPECT_TRUE(Back->Output.equalsOrdered(P.Output));
  EXPECT_TRUE(Back->OrderedCompare);
}

TEST(ProblemJson, RejectsMissingPieces) {
  auto Check = [](const char *Doc) {
    std::string Err;
    std::optional<JsonValue> V = parseJson(Doc);
    ASSERT_TRUE(V) << Doc;
    EXPECT_FALSE(problemFromJson(*V, &Err)) << Doc;
    EXPECT_FALSE(Err.empty()) << Doc;
  };
  Check(R"({})");
  Check(R"({"inputs": []})"); // empty inputs
  // Missing output.
  Check(R"({"inputs": [{"columns": [{"name": "a", "type": "num"}],
                        "rows": []}]})");
  // Malformed nested table is reported with its input index.
  std::string Err;
  std::optional<JsonValue> V = parseJson(
      R"({"inputs": [{"columns": [{"name": "a", "type": "num"}],
                      "rows": [["x"]]}],
          "output": {"columns": [{"name": "a", "type": "num"}],
                     "rows": []}})");
  ASSERT_TRUE(V);
  EXPECT_FALSE(problemFromJson(*V, &Err));
  EXPECT_NE(Err.find("input 0"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Program s-expressions
//===----------------------------------------------------------------------===//

TEST(Sexp, RoundTripIsIdentityOnAllSuiteGroundTruths) {
  ComponentLibrary Lib = fullLibrary();
  size_t Checked = 0;
  for (const std::vector<BenchmarkTask> *Suite :
       {&morpheusSuite(), &sqlSuite()}) {
    for (const BenchmarkTask &T : *Suite) {
      std::string Printed = printSexp(T.GroundTruth);
      std::string Err;
      HypPtr Back = parseSexp(Printed, Lib, &Err);
      ASSERT_TRUE(Back) << T.Id << ": " << Err << "\n  " << Printed;
      // Identity: re-printing reproduces the text, and the parsed program
      // still evaluates to the task's expected output.
      EXPECT_EQ(printSexp(Back), Printed) << T.Id;
      std::optional<Table> Out = Back->evaluate(T.Inputs);
      ASSERT_TRUE(Out) << T.Id;
      EXPECT_TRUE(T.OrderedCompare ? Out->equalsOrdered(T.Output)
                                   : Out->equalsUnordered(T.Output))
          << T.Id;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 108u); // 80 data-preparation tasks + 28 SQL tasks
}

TEST(Sexp, RoundTripsPartialHypothesesAndQuotedAtoms) {
  ComponentLibrary Lib = fullLibrary();
  const TableTransformer *Filter = Lib.findTable("filter");
  const TableTransformer *Select = Lib.findTable("select");
  ASSERT_TRUE(Filter && Select);

  // select(filter(?tbl, ?), (cols "weird name" plain))
  HypPtr H = Hypothesis::apply(
      Select,
      {Hypothesis::apply(Filter, {Hypothesis::tblHole(),
                                  Hypothesis::valueHole(ParamKind::Pred)}),
       Hypothesis::filled(ParamKind::ColsOrdered,
                          Term::colsLit({"weird name", "plain"}))});
  std::string Printed = printSexp(H);
  std::string Err;
  HypPtr Back = parseSexp(Printed, Lib, &Err);
  ASSERT_TRUE(Back) << Err << "\n  " << Printed;
  EXPECT_EQ(printSexp(Back), Printed);
  EXPECT_EQ(Back->numTblHoles(), 1u);
  EXPECT_EQ(Back->numValueHoles(), 1u);
}

TEST(Sexp, ReportsMalformedPrograms) {
  ComponentLibrary Lib = fullLibrary();
  for (const char *Bad : {
           "",                                       // empty
           "(frobnicate (input 0))",                 // unknown component
           "(filter (input 0))",                     // too few arguments
           "(distinct (input 0) (num 1))",           // too many arguments
           "(filter (input 0) (bogus (col a)))",     // unknown operator
           "(filter (input 0) (> (col a)))",         // operator arity
           "(select (filter (input 0) ?) (cols a)",  // unbalanced parens
           "(input x)",                              // bad input index
           "(select (input 0) (cols \"unterminated))", // lexical error
       }) {
    std::string Err;
    EXPECT_FALSE(parseSexp(Bad, Lib, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(Sexp, RejectsPathologicalNestingCleanly) {
  std::string Deep;
  for (int I = 0; I != 100000; ++I)
    Deep += "(distinct ";
  std::string Err;
  EXPECT_FALSE(parseSexp(Deep, fullLibrary(), &Err));
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// R emission
//===----------------------------------------------------------------------===//

TEST(REmit, EmitsExecutableVerbSyntax) {
  ComponentLibrary Lib = fullLibrary();
  const ValueTransformer *Gt = Lib.findValue(">");
  ASSERT_TRUE(Gt);

  // summarise(group_by(filter(x, age > 10), dept), total = sum(pay))
  HypPtr H = Hypothesis::apply(
      Lib.findTable("summarise"),
      {Hypothesis::apply(
           Lib.findTable("group_by"),
           {Hypothesis::apply(
                Lib.findTable("filter"),
                {Hypothesis::input(0),
                 Hypothesis::filled(
                     ParamKind::Pred,
                     Term::app(Gt, {Term::colRef("age"),
                                    Term::constant(Value::number(10))}))}),
            Hypothesis::filled(ParamKind::Cols, Term::colsLit({"dept"}))}),
       Hypothesis::filled(ParamKind::NewName, Term::nameLit("total")),
       Hypothesis::filled(ParamKind::Agg,
                          Term::app(Lib.findValue("sum"),
                                    {Term::colRef("pay")}))});

  std::string R = emitRProgram(H, {"staff"});
  EXPECT_NE(R.find("library(dplyr)"), std::string::npos);
  EXPECT_NE(R.find("df1 <- filter(staff, age > 10)"), std::string::npos);
  EXPECT_NE(R.find("df2 <- group_by(df1, dept)"), std::string::npos);
  EXPECT_NE(R.find("df3 <- summarise(df2, total = sum(pay))"),
            std::string::npos);

  // Non-syntactic column names are backtick-quoted.
  HypPtr Sel = Hypothesis::apply(
      Lib.findTable("select"),
      {Hypothesis::input(0),
       Hypothesis::filled(ParamKind::ColsOrdered,
                          Term::colsLit({"2007", "ok"}))});
  std::string R2 = emitRProgram(Sel, {}, /*Prelude=*/false);
  EXPECT_NE(R2.find("select(x0, `2007`, ok)"), std::string::npos);
}

} // namespace
