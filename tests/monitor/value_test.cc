#include "src/monitor/value.h"

#include <gtest/gtest.h>

#include <ostream>

namespace comma::monitor {
namespace {

TEST(ValueTest, TypesReportCorrectly) {
  EXPECT_EQ(TypeOf(Value(int64_t{5})), ValueType::kLong);
  EXPECT_EQ(TypeOf(Value(2.5)), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), ValueType::kString);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(ValueToString(Value(int64_t{-7})), "-7");
  EXPECT_EQ(ValueToString(Value(std::string("text"))), "text");
  EXPECT_EQ(ValueToString(Value(1.5)), "1.5");
}

TEST(ValueTest, SerializationRoundTrips) {
  for (const Value& v : {Value(int64_t{-123456789}), Value(3.14159), Value(std::string("hello")),
                         Value(int64_t{0}), Value(std::string(""))}) {
    util::Bytes buf;
    util::ByteWriter w(&buf);
    WriteValue(w, v);
    util::ByteReader r(buf);
    auto back = ReadValue(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
}

TEST(ValueTest, ReadValueRejectsGarbage) {
  util::Bytes buf = {99, 0, 0};
  util::ByteReader r(buf);
  EXPECT_FALSE(ReadValue(r).has_value());
}

struct RangeCase {
  Op op;
  int64_t lo;
  int64_t hi;
  int64_t value;
  bool expected;
};

// Names each case by its fields. Without this gtest prints the struct's raw
// bytes, padding included, and gtest_discover_tests turns that into ctest
// names that change from build to build.
void PrintTo(const RangeCase& c, std::ostream* os) {
  static constexpr const char* kOpNames[] = {"any", "gt",  "gte", "lt", "lte",
                                             "eq",  "neq", "in",  "out"};
  *os << kOpNames[static_cast<size_t>(c.op)] << " lo=" << c.lo << " hi=" << c.hi
      << " value=" << c.value << " expect=" << (c.expected ? "true" : "false");
}

class InRangeTest : public ::testing::TestWithParam<RangeCase> {};

TEST_P(InRangeTest, EvaluatesCorrectly) {
  const RangeCase& c = GetParam();
  Attr attr = Attr::Range(c.op, c.lo, c.hi);
  EXPECT_EQ(InRange(Value(c.value), attr), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Operators, InRangeTest,
    ::testing::Values(
        RangeCase{Op::kGt, 10, 0, 11, true}, RangeCase{Op::kGt, 10, 0, 10, false},
        RangeCase{Op::kGte, 10, 0, 10, true}, RangeCase{Op::kGte, 10, 0, 9, false},
        RangeCase{Op::kLt, 10, 0, 9, true}, RangeCase{Op::kLt, 10, 0, 10, false},
        RangeCase{Op::kLte, 10, 0, 10, true}, RangeCase{Op::kLte, 10, 0, 11, false},
        RangeCase{Op::kEq, 10, 0, 10, true}, RangeCase{Op::kEq, 10, 0, 11, false},
        RangeCase{Op::kNeq, 10, 0, 11, true}, RangeCase{Op::kNeq, 10, 0, 10, false},
        // The thesis's Fig. 6.2 example: interval [0, 20] with COMMA_IN.
        RangeCase{Op::kIn, 0, 20, 10, true}, RangeCase{Op::kIn, 0, 20, 0, true},
        RangeCase{Op::kIn, 0, 20, 20, true}, RangeCase{Op::kIn, 0, 20, 21, false},
        RangeCase{Op::kOut, 0, 20, 21, true}, RangeCase{Op::kOut, 0, 20, 10, false}));

TEST(ValueTest, AnyMatchesEverything) {
  EXPECT_TRUE(InRange(Value(int64_t{42}), Attr::Always()));
  EXPECT_TRUE(InRange(Value(std::string("s")), Attr::Always()));
}

TEST(ValueTest, MixedNumericTypesCompare) {
  Attr attr = Attr::Unary(Op::kGt, 1.5);
  EXPECT_TRUE(InRange(Value(int64_t{2}), attr));
  EXPECT_FALSE(InRange(Value(int64_t{1}), attr));
}

TEST(ValueTest, StringsOnlySupportEquality) {
  // §6.3.2: type checking restricts strings to COMMA_EQ / COMMA_NEQ.
  Attr eq = Attr::Unary(Op::kEq, std::string("up"));
  EXPECT_TRUE(InRange(Value(std::string("up")), eq));
  EXPECT_FALSE(InRange(Value(std::string("down")), eq));
  Attr neq = Attr::Unary(Op::kNeq, std::string("up"));
  EXPECT_TRUE(InRange(Value(std::string("down")), neq));
  // Ordering operators on strings: never in range.
  Attr gt = Attr::Unary(Op::kGt, std::string("a"));
  EXPECT_FALSE(InRange(Value(std::string("b")), gt));
  // Comparing a string against a numeric bound: never in range.
  Attr num = Attr::Unary(Op::kEq, int64_t{1});
  EXPECT_FALSE(InRange(Value(std::string("1")), num));
}

TEST(ValueTest, VariableIdFormatting) {
  VariableId id;
  id.name = "ifInOctets";
  id.index = 2;
  id.server = net::Ipv4Address(10, 0, 0, 1);
  EXPECT_EQ(id.ToString(), "ifInOctets[2]@10.0.0.1");
  VariableId local;
  local.name = "sysUpTime";
  EXPECT_EQ(local.ToString(), "sysUpTime@local");
}

TEST(ValueTest, VariableIdOrdering) {
  VariableId a;
  a.name = "a";
  VariableId b;
  b.name = "b";
  EXPECT_TRUE(a < b);
  VariableId a2 = a;
  a2.index = 1;
  EXPECT_TRUE(a < a2);
}

}  // namespace
}  // namespace comma::monitor
