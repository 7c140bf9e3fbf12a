//===- Golden.cpp - The checked-in reference outputs ----------------------===//

#include "Golden.h"

#include <algorithm>
#include <sstream>

namespace repobench {
namespace {

std::string_view trimRight(std::string_view S) {
  while (!S.empty() && (S.back() == ' ' || S.back() == '\r'))
    S.remove_suffix(1);
  return S;
}

/// Start offsets of the header's column names: a name starts at a
/// non-space character that follows the line start or two spaces.
std::vector<size_t> columnStarts(std::string_view Header) {
  std::vector<size_t> Starts;
  for (size_t I = 0; I < Header.size(); ++I) {
    if (Header[I] == ' ')
      continue;
    bool AtBoundary = I == 0 || (I >= 2 && Header[I - 1] == ' ' &&
                                 Header[I - 2] == ' ');
    if (AtBoundary)
      Starts.push_back(I);
  }
  return Starts;
}

std::vector<std::string> cellsAt(std::string_view Line,
                                 const std::vector<size_t> &Starts) {
  std::vector<std::string> Cells;
  Cells.reserve(Starts.size());
  for (size_t C = 0; C != Starts.size(); ++C) {
    size_t Begin = std::min(Starts[C], Line.size());
    size_t End = C + 1 == Starts.size() ? Line.size()
                                        : std::min(Starts[C + 1], Line.size());
    Cells.emplace_back(trimRight(Line.substr(Begin, End - Begin)));
  }
  return Cells;
}

} // namespace

RenderedTable parseRender(std::string_view Text) {
  RenderedTable T;
  std::vector<size_t> Starts;
  bool HaveHeader = false;
  while (!Text.empty()) {
    size_t Nl = Text.find('\n');
    std::string_view Line = Text.substr(0, Nl);
    Text.remove_prefix(Nl == std::string_view::npos ? Text.size() : Nl + 1);
    if (!HaveHeader) {
      Starts = columnStarts(Line);
      T.Header = cellsAt(Line, Starts);
      HaveHeader = true;
    } else if (Line.rfind("# groups:", 0) == 0) {
      std::istringstream Names{std::string(Line.substr(9))};
      for (std::string G; Names >> G;)
        T.Groups.push_back(G);
    } else {
      T.Rows.push_back(cellsAt(Line, Starts));
    }
  }
  return T;
}

bool parseGoldenRenders(std::istream &In, std::map<std::string, GoldenTask> &Out,
                        std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::string Id;      // current task
  int Block = -2;      // -2 none yet, -1 output, >= 0 input index
  std::string Text;    // lines of the current block
  size_t LineNo = 0;
  auto Flush = [&] {
    if (Block == -2)
      return;
    RenderedTable T = parseRender(Text);
    if (Block == -1)
      Out[Id].Output = std::move(T);
    else
      Out[Id].Inputs.push_back(std::move(T));
    Text.clear();
  };
  for (std::string Line; std::getline(In, Line);) {
    ++LineNo;
    if (Line.rfind("== ", 0) == 0) {
      Flush();
      Id = std::string(trimRight(std::string_view(Line).substr(3)));
      if (Id.empty() || Out.count(Id))
        return Fail("line " + std::to_string(LineNo) + ": empty or duplicate "
                    "task id '" + Id + "'");
      Out[Id];
      Block = -1;
    } else if (Line.rfind("-- in", 0) == 0) {
      if (Block == -2)
        return Fail("line " + std::to_string(LineNo) +
                    ": input block before any task");
      Flush();
      size_t Expect = Out[Id].Inputs.size();
      if (Line.substr(5) != std::to_string(Expect))
        return Fail("line " + std::to_string(LineNo) + ": expected -- in" +
                    std::to_string(Expect));
      Block = int(Expect);
    } else {
      if (Block == -2)
        return Fail("line " + std::to_string(LineNo) +
                    ": table text before the first task");
      Text += Line;
      Text += '\n';
    }
  }
  Flush();
  if (Out.empty())
    return Fail("no tasks in golden file");
  return true;
}

bool sameTable(const RenderedTable &Expected, const RenderedTable &Actual,
               bool Ordered) {
  if (Expected.Header != Actual.Header ||
      Expected.Rows.size() != Actual.Rows.size())
    return false;
  if (Ordered)
    return Expected.Rows == Actual.Rows;
  std::vector<std::vector<std::string>> A = Expected.Rows, B = Actual.Rows;
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  return A == B;
}

} // namespace repobench
