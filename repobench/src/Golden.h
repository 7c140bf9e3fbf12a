//===- Golden.h - The checked-in reference outputs --------------*- C++ -*-===//
//
// tests/golden/suite_renders.txt holds, for every suite task, the expected
// output table and the input tables as Table::toString renders them:
//
//   == C1-01
//   student  bio  math
//   ann      52   51
//   -- in0
//   student  subject  score
//   ...
//
// The benchmark reads that file (never writes it) and compares each
// program's re-evaluated output against the task's expected block. Both
// sides are rendered text, so the comparison is independent of the
// library's in-memory table equality.
//
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_GOLDEN_H
#define REPOBENCH_GOLDEN_H

#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace repobench {

/// One rendered table split into cells. Column boundaries come from the
/// header line (Table::toString pads every column to a fixed width and
/// separates columns by at least two spaces), so empty cells survive.
struct RenderedTable {
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
  /// The "# groups: a b" trailer of grouped tables, if any. Not compared:
  /// the synthesizer accepts outputs regardless of grouping metadata.
  std::vector<std::string> Groups;
};

/// Splits the text of one Table::toString render into a RenderedTable.
RenderedTable parseRender(std::string_view Text);

/// Expected output and inputs of one task.
struct GoldenTask {
  RenderedTable Output;
  std::vector<RenderedTable> Inputs;
};

/// Parses the whole golden render file, keyed by task id. Returns false
/// with \p Err set on a malformed file (text before the first "== " line,
/// an input block before its task, a duplicate task id).
bool parseGoldenRenders(std::istream &In, std::map<std::string, GoldenTask> &Out,
                        std::string *Err);

/// Compares \p Actual with \p Expected: same column names in the same
/// order, and the same rows — as a multiset unless \p Ordered.
bool sameTable(const RenderedTable &Expected, const RenderedTable &Actual,
               bool Ordered);

} // namespace repobench

#endif // REPOBENCH_GOLDEN_H
