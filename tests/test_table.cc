// Table, Schema and Column behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "table/table.h"
#include "test_helpers.h"

namespace scorpion {
namespace {

TEST(Schema, FieldLookup) {
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kCategorical}});
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.FieldIndex("a").ValueOrDie(), 0);
  EXPECT_EQ(schema.FieldIndex("b").ValueOrDie(), 1);
  EXPECT_TRUE(schema.FieldIndex("c").status().IsKeyError());
  EXPECT_TRUE(schema.HasField("a"));
  EXPECT_FALSE(schema.HasField("z"));
  EXPECT_EQ(schema.ToString(), "schema(a: double, b: categorical)");
}

TEST(Column, DoubleAppendAndStats) {
  Column col(DataType::kDouble);
  EXPECT_TRUE(col.AppendDouble(3.0).ok());
  EXPECT_TRUE(col.AppendDouble(-1.0).ok());
  EXPECT_TRUE(col.AppendDouble(7.0).ok());
  EXPECT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col.Min().ValueOrDie(), -1.0);
  EXPECT_DOUBLE_EQ(col.Max().ValueOrDie(), 7.0);
  EXPECT_DOUBLE_EQ(col.GetDouble(1), -1.0);
  EXPECT_TRUE(col.AppendString("x").IsTypeError());
}

TEST(Column, MinMaxSkipNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column col(DataType::kDouble);
  for (double v : {nan, 3.0, nan, -1.0, 7.0, nan}) {
    EXPECT_TRUE(col.AppendDouble(v).ok());
  }
  EXPECT_EQ(col.Min().ValueOrDie(), -1.0);
  EXPECT_EQ(col.Max().ValueOrDie(), 7.0);
  Column all_nan(DataType::kDouble);
  EXPECT_TRUE(all_nan.AppendDouble(nan).ok());
  EXPECT_TRUE(std::isnan(all_nan.Min().ValueOrDie()));
  EXPECT_TRUE(std::isnan(all_nan.Max().ValueOrDie()));
}

TEST(Column, MinMaxErrorOnEmptyOrCategorical) {
  Column empty(DataType::kDouble);
  EXPECT_TRUE(empty.Min().status().IsInvalidArgument());
  EXPECT_TRUE(empty.Max().status().IsInvalidArgument());
  Column cat(DataType::kCategorical);
  EXPECT_TRUE(cat.AppendString("x").ok());
  EXPECT_TRUE(cat.Min().status().IsTypeError());
  EXPECT_TRUE(cat.Max().status().IsTypeError());
}

TEST(Column, DictionaryEncoding) {
  Column col(DataType::kCategorical);
  EXPECT_TRUE(col.AppendString("red").ok());
  EXPECT_TRUE(col.AppendString("blue").ok());
  EXPECT_TRUE(col.AppendString("red").ok());
  EXPECT_EQ(col.Cardinality(), 2);
  EXPECT_EQ(col.GetCode(0), col.GetCode(2));  // interned
  EXPECT_NE(col.GetCode(0), col.GetCode(1));
  EXPECT_EQ(col.GetString(2), "red");
  EXPECT_EQ(col.CodeOf("blue"), 1);
  EXPECT_EQ(col.CodeOf("green"), -1);
  EXPECT_TRUE(col.AppendDouble(1.0).IsTypeError());
}

TEST(Column, GetValueBoundsChecked) {
  Column col(DataType::kDouble);
  ASSERT_TRUE(col.AppendDouble(1.0).ok());
  EXPECT_TRUE(col.GetValue(0).ok());
  EXPECT_TRUE(col.GetValue(1).status().IsIndexError());
}

TEST(Table, AppendRowValidatesArityAndTypes) {
  Table t(Schema({{"x", DataType::kDouble}, {"s", DataType::kCategorical}}));
  EXPECT_TRUE(t.AppendRow({1.0, std::string("a")}).ok());
  EXPECT_TRUE(t.AppendRow({1.0}).IsInvalidArgument());
  EXPECT_TRUE(t.AppendRow({std::string("oops"), std::string("a")})
                  .IsTypeError());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, AppendRowRejectsBadRowWhole) {
  // The type error sits in the last column: a row-at-a-time append would
  // already have grown column 0 when it hits it.
  Table t(Schema({{"s", DataType::kCategorical}, {"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({std::string("a"), 1.0}).ok());
  EXPECT_TRUE(
      t.AppendRow({std::string("b"), std::string("oops")}).IsTypeError());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(0).size(), 1u);
  EXPECT_EQ(t.column(1).size(), 1u);
  ASSERT_TRUE(t.AppendRow({std::string("c"), 2.0}).ok());
  EXPECT_EQ(t.column(0).GetString(1), "c");
  EXPECT_TRUE(t.FinalizeColumnwiseBuild().ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumericValueIntoCategoricalIsFormatted) {
  Table t(Schema({{"s", DataType::kCategorical}}));
  ASSERT_TRUE(t.AppendRow({42.0}).ok());
  EXPECT_EQ(t.column(0).GetString(0), "42");
}

TEST(Table, ColumnByName) {
  Table t = testing_helpers::PaperSensorsTable();
  auto col = t.ColumnByName("temp");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->type(), DataType::kDouble);
  EXPECT_TRUE(t.ColumnByName("nope").status().IsKeyError());
}

TEST(Table, TakeRowsPreservesValuesAndOrder) {
  Table t = testing_helpers::PaperSensorsTable();
  auto sub = t.TakeRows({5, 8, 0});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_rows(), 3u);
  auto temp = sub->ColumnByName("temp");
  ASSERT_TRUE(temp.ok());
  EXPECT_DOUBLE_EQ((*temp)->GetDouble(0), 100.0);  // T6
  EXPECT_DOUBLE_EQ((*temp)->GetDouble(1), 80.0);   // T9
  EXPECT_DOUBLE_EQ((*temp)->GetDouble(2), 34.0);   // T1
  EXPECT_TRUE(t.TakeRows({99}).status().IsIndexError());
}

TEST(Table, ToStringTruncates) {
  Table t = testing_helpers::PaperSensorsTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("... (7 more)"), std::string::npos);
}

}  // namespace
}  // namespace scorpion
