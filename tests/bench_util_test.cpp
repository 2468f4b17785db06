// Tests for the benches' --json writer (bench/bench_util.h): every
// document it writes must parse under the repo's strict JSON reader, whose
// grammar rejects raw control characters and bare nan/inf tokens.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "bench_util.h"
#include "common/json.h"

namespace dfv::benchutil {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(JsonReport, ControlBytesAndNonFiniteDoublesRoundTrip) {
  const std::string path = ::testing::TempDir() + "bench_util_test.json";
  std::string flag = "--json";
  std::string name = "bench_x";
  char* argv[] = {name.data(), flag.data(), const_cast<char*>(path.c_str())};
  JsonReport report(3, argv, "bench\t\"x\"");
  ASSERT_TRUE(report.enabled());

  std::string raw = "a\nb\x01";
  raw += '\0';
  raw += "c\x1f\\\"d\x7f";
  const double inf = std::numeric_limits<double>::infinity();
  report.beginRow("t\r")
      .field("text", raw)
      .field("key\b", "v")
      .field("nan", std::nan(""))
      .field("inf", inf)
      .field("ninf", -inf)
      .field("finite", 1.5)
      .field("count", std::uint64_t{7});
  ASSERT_TRUE(report.write());

  const common::JsonValue doc = common::parseJson(readFile(path));
  EXPECT_EQ(doc.at("bench").asString(), "bench\t\"x\"");
  ASSERT_EQ(doc.at("rows").items().size(), 1u);
  const common::JsonValue& row = doc.at("rows").items()[0];
  EXPECT_EQ(row.at("table").asString(), "t\r");
  EXPECT_EQ(row.at("text").asString(), raw);
  EXPECT_EQ(row.at("key\b").asString(), "v");
  EXPECT_TRUE(row.at("nan").isNull());
  EXPECT_TRUE(row.at("inf").isNull());
  EXPECT_TRUE(row.at("ninf").isNull());
  EXPECT_EQ(row.at("finite").asDouble(), 1.5);
  EXPECT_EQ(row.at("count").asUint64(), 7u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dfv::benchutil
