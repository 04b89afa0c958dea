#include <gtest/gtest.h>

#include <sstream>

#include "relational/csv.hpp"

namespace paraquery {
namespace {

TEST(CsvTest, LoadsIntegersAndStrings) {
  Database db;
  RelId id = LoadCsv(&db,
                     "EP",
                     "# employee,project\n"
                     "1, kernel\n"
                     "1, compiler\n"
                     "2, kernel\n")
                 .ValueOrDie();
  const Relation& rel = db.relation(id);
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_EQ(rel.size(), 3u);
  Value kernel = db.dict().Find("kernel");
  ASSERT_NE(kernel, -1);
  EXPECT_TRUE(rel.Contains(std::vector<Value>{1, kernel}));
}

TEST(CsvTest, NegativeAndLargeNumbers) {
  // The largest admissible integer literal is kCodeBase - 1 (2^62 - 1);
  // larger ones would collide with the dictionary's reserved code range and
  // are interned as strings instead (see DictRangeLiteralBecomesString).
  Database db;
  RelId id = LoadCsv(&db, "R", "-5, 4611686018427387903\n").ValueOrDie();
  EXPECT_EQ(db.relation(id).At(0, 0), -5);
  EXPECT_EQ(db.relation(id).At(0, 1), 4611686018427387903LL);
}

TEST(CsvTest, RejectsRaggedRows) {
  Database db;
  auto r = LoadCsv(&db, "R", "1,2\n3\n");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // A rejected load interns none of its strings.
  r = LoadCsv(&db, "R", "a,b\nc\n");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.dict().size(), 0u);
  EXPECT_FALSE(db.HasRelation("R"));
}

TEST(CsvTest, RejectsEmptyAndDuplicate) {
  Database db;
  EXPECT_FALSE(LoadCsv(&db, "R", "# only comments\n").ok());
  LoadCsv(&db, "R", "1\n").ValueOrDie();
  EXPECT_EQ(LoadCsv(&db, "R", "2\n").status().code(),
            StatusCode::kAlreadyExists);
  LoadCsv(&db, "S", "a, b\nc, d\n").ValueOrDie();
  ASSERT_EQ(db.dict().size(), 4u);
  EXPECT_EQ(LoadCsv(&db, "S", "e, f\n").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.dict().size(), 4u);
}

TEST(CsvTest, SkipsBlankLinesAndTrimsCells) {
  Database db;
  RelId id = LoadCsv(&db, "R", "\n  1 ,  2  \n\n  3,4\n\n").ValueOrDie();
  EXPECT_EQ(db.relation(id).size(), 2u);
  EXPECT_EQ(db.relation(id).At(0, 1), 2);
}

TEST(CsvTest, MixedCellTypesWithinColumn) {
  // '12a' is not numeric: interned as a string; '12' is numeric.
  Database db;
  RelId id = LoadCsv(&db, "R", "12\n12a\n").ValueOrDie();
  EXPECT_EQ(db.relation(id).At(0, 0), 12);
  EXPECT_EQ(db.relation(id).At(1, 0), db.dict().Find("12a"));
}

TEST(CsvTest, RoundTripThroughWriteCsv) {
  Database db;
  RelId id = LoadCsv(&db, "R", "1,alpha\n2,beta\n").ValueOrDie();
  std::ostringstream out;
  WriteCsv(db, id, &out, /*use_dict=*/true);
  Database db2;
  RelId id2 = LoadCsv(&db2, "R", out.str()).ValueOrDie();
  EXPECT_EQ(db2.relation(id2).size(), 2u);
  EXPECT_NE(db2.dict().Find("alpha"), -1);
  // Numeric export path (codes as integers).
  std::ostringstream raw;
  WriteCsv(db, id, &raw, /*use_dict=*/false);
  EXPECT_NE(raw.str().find("0"), std::string::npos);
}

TEST(CsvTest, OverflowLiteralFallsBackToString) {
  // A digit run too large for Value used to reach std::stoll and abort the
  // process with an uncaught std::out_of_range. It now loads as an interned
  // string.
  Database db;
  RelId id =
      LoadCsv(&db, "R", "99999999999999999999, 1\n-99999999999999999999, 2\n")
          .ValueOrDie();
  EXPECT_EQ(db.relation(id).size(), 2u);
  Value big = db.dict().Find("99999999999999999999");
  ASSERT_NE(big, Dictionary::kNotFound);
  EXPECT_EQ(db.relation(id).At(0, 0), big);
  EXPECT_EQ(db.relation(id).At(1, 0), db.dict().Find("-99999999999999999999"));
  EXPECT_EQ(db.relation(id).At(0, 1), 1);
}

TEST(CsvTest, DictRangeLiteralBecomesString) {
  // An in-range int64 literal that falls inside the dictionary's reserved
  // code range is interned, keeping stored integers disjoint from codes.
  Database db;
  RelId id = LoadCsv(&db, "R", "4611686018427387904\n").ValueOrDie();
  Value v = db.relation(id).At(0, 0);
  EXPECT_TRUE(db.dict().Contains(v));
  EXPECT_EQ(db.dict().Lookup(v), "4611686018427387904");
}

TEST(CsvTest, IntegerEqualToDictCodeRoundTrips) {
  // Regression: with dense-from-0 dictionary codes, WriteCsv(use_dict=true)
  // printed the dictionary string for ANY cell whose integer value collided
  // with a code — here the 0 and 1 cells would have come back as "alpha" and
  // "beta". Codes now live in a disjoint range, so integers survive.
  Database db;
  RelId id = LoadCsv(&db, "R", "0, alpha\n1, beta\n").ValueOrDie();
  std::ostringstream out;
  WriteCsv(db, id, &out, /*use_dict=*/true);
  Database db2;
  RelId id2 = LoadCsv(&db2, "R", out.str()).ValueOrDie();
  ASSERT_EQ(db2.relation(id2).size(), 2u);
  EXPECT_EQ(db2.relation(id2).At(0, 0), 0);
  EXPECT_EQ(db2.relation(id2).At(1, 0), 1);
  EXPECT_EQ(db2.relation(id2).At(0, 1), db2.dict().Find("alpha"));
  EXPECT_EQ(db2.relation(id2).At(1, 1), db2.dict().Find("beta"));
}

TEST(CsvTest, MissingFileIsNotFound) {
  Database db;
  EXPECT_EQ(LoadCsvFile(&db, "R", "/nonexistent/file.csv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace paraquery
