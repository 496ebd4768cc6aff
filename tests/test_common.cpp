// Tests for the common utilities: JSON parse/dump, deterministic RNG, and
// table formatting.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, ParseNested) {
  Json j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").at("e").is_null());
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
}

// Numbers follow the RFC 8259 grammar exactly: a malformed token is an
// error that names its offset, never a silently truncated prefix.
TEST(Json, MalformedNumbersAreRejected) {
  for (const char* text :
       {"[1-2]", "[1.2.3]", "[1.5e]", "[1.]", "[01]", "[1e5e5]",
        R"({"accuracy": 0.9-1})", "-", "[-]", "[.5]", "[+1]", "[1e+]",
        "[-01]", "[1.e5]", "[0x10]", "[1E--5]"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "parsed malformed number: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << text;
    }
  }
  // The writer's %lld / %.17g forms, and the other grammar corners, parse.
  EXPECT_EQ(Json::parse("[0]").as_array()[0].as_int(), 0);
  EXPECT_EQ(Json::parse("-0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(Json::parse("-1.25E+2").as_number(), -125.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e-3").as_number(), 1e-3);
  EXPECT_DOUBLE_EQ(Json::parse("0.10000000000000001").as_number(), 0.1);
  EXPECT_EQ(Json::parse("[10,-7]").as_array()[1].as_int(), -7);
}

// Parsing recurses once per array/object level, so nesting is bounded: a
// hostile document of 10^5 '[' is a ParseError naming its offset, never a
// stack overflow, while nesting at the limit still parses.
TEST(Json, DeepNestingIsAParseErrorNotACrash) {
  const auto expect_depth_error = [](const std::string& text) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "parsed a document nested " << text.size() << " deep";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("offset 512"), std::string::npos) << what;
      EXPECT_NE(what.find("nesting"), std::string::npos) << what;
    }
  };
  expect_depth_error(std::string(100000, '['));
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  try {
    Json::parse(objects);
    ADD_FAILURE() << "parsed a 10^5-deep object chain";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }

  const std::string at_limit = std::string(512, '[') + std::string(512, ']');
  Json j = Json::parse(at_limit);
  for (int depth = 1; depth < 512; ++depth) j = Json(j.as_array().at(0));
  EXPECT_TRUE(j.as_array().empty());
  expect_depth_error(std::string(513, '[') + std::string(513, ']'));
}

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j["name"] = "adapex";
  j["pi"] = 3.14159;
  j["n"] = 42;
  j["flag"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(nullptr);
  j["mixed"] = std::move(arr);
  for (int indent : {-1, 0, 2}) {
    Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "adapex");
    EXPECT_DOUBLE_EQ(back.at("pi").as_number(), 3.14159);
    EXPECT_EQ(back.at("n").as_int(), 42);
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_EQ(back.at("mixed").as_array().size(), 3u);
  }
}

TEST(Json, NumberBytesMatchPrintfForms) {
  // dump() formats numbers with std::to_chars. Its bytes are pinned to the
  // printf forms it replaced: "%lld" for integral values below 1e15 in
  // magnitude, "%.17g" for everything else.
  const auto printf_form = [](double d) {
    char buf[64];
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    return std::string(buf);
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 3.14159, 1e-7, 123456789.125,
      5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1e15 - 1, 1e15, 1e15 + 1,
      -(1e15 - 1), -1e15, 9007199254740993.0, 1e300, 1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);  // any bit pattern: subnormals, NaNs, infinities
    values.push_back(std::ldexp(rng.uniform(-1.0, 1.0), i % 120 - 60));
    values.push_back(static_cast<double>(
        static_cast<std::int64_t>(bits >> (i % 64)) % 2000000000000000LL));
  }
  for (const double d : values) {
    ASSERT_EQ(Json(d).dump(), printf_form(d)) << "bits of " << d;
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mid"] = 3;
  const std::string s = j.dump();
  EXPECT_LT(s.find("zebra"), s.find("apple"));
  EXPECT_LT(s.find("apple"), s.find("mid"));
}

TEST(Json, EscapedStringsRoundTrip) {
  Json j = Json("quote\" backslash\\ tab\t newline\n");
  Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), "quote\" backslash\\ tab\t newline\n");
}

TEST(Json, UnicodeEscapeDecoding) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");  // é
}

TEST(Json, TypeMismatchThrows) {
  Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), Error);
  EXPECT_THROW(j.as_string(), Error);
  EXPECT_THROW(Json::parse("1.5").as_int(), Error);
  EXPECT_THROW(Json::parse("{}").at("missing"), ParseError);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.fork();
  // The fork must not replay the parent's sequence.
  Rng b(17);
  b.fork();
  EXPECT_EQ(a.next_u64(), b.next_u64());  // parents stay in sync
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.next_u64() == a.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Table, AlignmentAndCsv) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_EQ(t.csv(), "name,value\na,1\nlonger-name,2.5\n");
}

TEST(Table, ArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(1.0, 0), "1");
  EXPECT_EQ(TextTable::num(-0.5, 3), "-0.500");
}

TEST(Files, WriteReadRoundTrip) {
  const std::string dir = scratch_dir("files");
  const std::string path = dir + "/file.txt";
  write_file(path, "hello\nworld");
  EXPECT_EQ(read_file(path), "hello\nworld");
  std::filesystem::remove_all(dir);
  EXPECT_THROW(read_file("/nonexistent/path/x"), Error);
}

}  // namespace
}  // namespace adapex
