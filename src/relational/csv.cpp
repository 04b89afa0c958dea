#include "relational/csv.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/fault_injection.hpp"

namespace paraquery {

namespace {

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

// Returns false — the caller then interns the cell as a string — when `s` is
// not an integer at all, when it overflows Value (e.g.
// "99999999999999999999", which std::stoll would have turned into an
// uncaught std::out_of_range), or when it parses but lands in the
// dictionary's reserved code range (admitting it would make the stored Value
// indistinguishable from an interned string's code).
bool ParseIntegerCell(std::string_view s, Value* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  return !Dictionary::InCodeRange(*out);
}

Result<RelId> LoadCsv(Database* db, const std::string& name,
                      std::string_view csv_text) {
  PQ_FAULT_POINT("csv.load");
  // Split and validate everything before touching the database: a rejected
  // load must not intern its string cells into the dictionary.
  std::vector<std::string_view> cells;
  size_t arity = 0;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= csv_text.size()) {
    size_t end = csv_text.find('\n', start);
    if (end == std::string_view::npos) end = csv_text.size();
    std::string_view line = Trim(csv_text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') {
      if (end == csv_text.size()) break;
      continue;
    }
    const size_t row_start = cells.size();
    size_t cell_start = 0;
    for (;;) {
      size_t comma = line.find(',', cell_start);
      cells.push_back(
          Trim(line.substr(cell_start, comma == std::string_view::npos
                                           ? std::string_view::npos
                                           : comma - cell_start)));
      if (comma == std::string_view::npos) break;
      cell_start = comma + 1;
    }
    const size_t row_cells = cells.size() - row_start;
    if (row_start == 0) {
      arity = row_cells;
    } else if (row_cells != arity) {
      return Status::InvalidArgument(internal::StrCat(
          "CSV line ", line_no, " has ", row_cells, " cells, expected ",
          arity));
    }
    if (end == csv_text.size()) break;
  }
  if (cells.empty()) {
    return Status::InvalidArgument("CSV contains no data rows");
  }
  PQ_ASSIGN_OR_RETURN(RelId id, db->AddRelation(name, arity));
  ValueVec row(arity);
  for (size_t first = 0; first < cells.size(); first += arity) {
    for (size_t c = 0; c < arity; ++c) {
      std::string_view cell = cells[first + c];
      if (!ParseIntegerCell(cell, &row[c])) row[c] = db->dict().Intern(cell);
    }
    db->relation(id).Add(row);
  }
  return id;
}

Result<RelId> LoadCsvFile(Database* db, const std::string& name,
                          const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(internal::StrCat("cannot open '", path, "'"));
  }
  PQ_FAULT_POINT("csv.open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsv(db, name, buffer.str());
}

void WriteCsv(const Database& db, RelId rel, std::ostream* out,
              bool use_dict) {
  const Relation& r = db.relation(rel);
  for (size_t row = 0; row < r.size(); ++row) {
    for (size_t col = 0; col < r.arity(); ++col) {
      if (col > 0) *out << ",";
      Value v = r.At(row, col);
      if (use_dict && db.dict().Contains(v)) {
        *out << db.dict().Lookup(v);
      } else {
        *out << v;
      }
    }
    *out << "\n";
  }
}

}  // namespace paraquery
