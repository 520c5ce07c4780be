#include "pubsub/schema.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace subcover {
namespace {

schema stockish() {
  return schema({
      {"stock", attribute_type::categorical, 8, {"IBM", "AAPL"}},
      {"volume", attribute_type::numeric, 16, {}},
      {"price", attribute_type::numeric, 12, {}},
  });
}

TEST(Schema, BasicAccessors) {
  const schema s = stockish();
  EXPECT_EQ(s.attribute_count(), 3);
  EXPECT_EQ(s.attribute(0).name, "stock");
  EXPECT_EQ(s.max_value(1), 65535U);
  EXPECT_EQ(s.max_value(2), 4095U);
}

TEST(Schema, IndexOf) {
  const schema s = stockish();
  EXPECT_EQ(s.index_of("volume"), 1);
  EXPECT_EQ(s.index_of("price"), 2);
  EXPECT_FALSE(s.index_of("nope").has_value());
}

TEST(Schema, LabelValues) {
  const schema s = stockish();
  EXPECT_EQ(s.label_value(0, "IBM"), 0U);
  EXPECT_EQ(s.label_value(0, "AAPL"), 1U);
  EXPECT_THROW((void)s.label_value(0, "MSFT"), std::invalid_argument);
  EXPECT_THROW((void)s.label_value(1, "IBM"), std::invalid_argument);
}

TEST(Schema, FormatValue) {
  const schema s = stockish();
  EXPECT_EQ(s.format_value(0, 1), "AAPL");
  EXPECT_EQ(s.format_value(1, 500), "500");
  // Out-of-dictionary categorical values fall back to numerals.
  EXPECT_EQ(s.format_value(0, 99), "99");
}

TEST(Schema, DominanceUniverse) {
  const schema s = stockish();
  const universe u = s.dominance_universe();
  EXPECT_EQ(u.dims(), 6);   // 2 * 3 attributes
  EXPECT_EQ(u.bits(), 16);  // max attribute width
}

TEST(Schema, RejectsEmpty) { EXPECT_THROW(schema({}), std::invalid_argument); }

TEST(Schema, RejectsDuplicateNames) {
  EXPECT_THROW(schema({{"a", attribute_type::numeric, 8, {}},
                       {"a", attribute_type::numeric, 8, {}}}),
               std::invalid_argument);
}

TEST(Schema, RejectsBadBits) {
  EXPECT_THROW(schema({{"a", attribute_type::numeric, 0, {}}}), std::invalid_argument);
  EXPECT_THROW(schema({{"a", attribute_type::numeric, 31, {}}}), std::invalid_argument);
}

TEST(Schema, RejectsCategoricalWithoutLabels) {
  EXPECT_THROW(schema({{"a", attribute_type::categorical, 8, {}}}), std::invalid_argument);
}

TEST(Schema, RejectsLabelOverflow) {
  EXPECT_THROW(schema({{"a", attribute_type::categorical, 1, {"x", "y", "z"}}}),
               std::invalid_argument);
}

TEST(Schema, RejectsDuplicateLabels) {
  EXPECT_THROW(schema({{"a", attribute_type::categorical, 4, {"x", "x"}}}),
               std::invalid_argument);
}

TEST(Schema, RejectsTooManyAttributes) {
  std::vector<attribute_def> attrs;
  for (int i = 0; i <= kMaxDims / 2; ++i)
    attrs.push_back({std::string("a").append(std::to_string(i)), attribute_type::numeric, 4, {}});
  EXPECT_THROW(schema(std::move(attrs)), std::invalid_argument);
}

TEST(Schema, Equality) {
  EXPECT_TRUE(stockish() == stockish());
  const schema other({{"x", attribute_type::numeric, 4, {}}});
  EXPECT_FALSE(stockish() == other);
}

}  // namespace
}  // namespace subcover
