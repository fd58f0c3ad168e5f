// Unit tests for src/common: rng, stats, config, table, csv, env, types,
// and the shared JSON reader with its scalar helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace esteem {
namespace {

TEST(Types, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Types, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4096), 12u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000003ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversSmallRange) {
  Rng rng(9);
  std::array<int, 4> seen{};
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(4)];
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Stats, MeanGeomeanStddev) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt((16.0 / 9 + 1.0 / 9 + 25.0 / 9) / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(-6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -6.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, Histogram) {
  Histogram h(4);
  h.add(0);
  h.add(1, 5);
  h.add(3);
  h.add(99);  // out of range: ignored
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(1), 5u);
  EXPECT_EQ(h.at(2), 0u);
  EXPECT_EQ(h.at(3), 1u);
  EXPECT_EQ(h.total(), 7u);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Config, PaperDefaultsSingleCore) {
  const SystemConfig cfg = SystemConfig::single_core();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.ncores, 1u);
  EXPECT_EQ(cfg.l2.geom.size_bytes, 4ULL * 1024 * 1024);
  EXPECT_EQ(cfg.l2.geom.ways, 16u);
  EXPECT_EQ(cfg.l2.geom.sets(), 4096u);
  EXPECT_EQ(cfg.l2.latency_cycles, 12u);
  EXPECT_EQ(cfg.l1.geom.size_bytes, 32ULL * 1024);
  EXPECT_EQ(cfg.l1.latency_cycles, 2u);
  EXPECT_EQ(cfg.mem.latency_cycles, 220u);
  EXPECT_DOUBLE_EQ(cfg.mem.bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ(cfg.esteem.alpha, 0.97);
  EXPECT_EQ(cfg.esteem.a_min, 3u);
  EXPECT_EQ(cfg.esteem.modules, 8u);
  EXPECT_EQ(cfg.esteem.sampling_ratio, 64u);
  // 50 us at 2 GHz = 100k cycles.
  EXPECT_EQ(cfg.retention_cycles(), 100'000u);
}

TEST(Config, PaperDefaultsDualCore) {
  const SystemConfig cfg = SystemConfig::dual_core();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.ncores, 2u);
  EXPECT_EQ(cfg.l2.geom.size_bytes, 8ULL * 1024 * 1024);
  EXPECT_DOUBLE_EQ(cfg.mem.bandwidth_gbps, 15.0);
  EXPECT_EQ(cfg.esteem.modules, 16u);
}

TEST(Config, MemServiceCycles) {
  const SystemConfig cfg = SystemConfig::single_core();
  // 64 B at 10 GB/s and 2 GHz: 5 bytes/cycle -> 12.8 cycles per line.
  EXPECT_NEAR(cfg.mem_service_cycles(), 12.8, 1e-12);
}

TEST(Config, ValidationRejectsBadParameters) {
  auto broken = [] { return SystemConfig::single_core(); };
  {
    auto cfg = broken();
    cfg.esteem.a_min = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.a_min = cfg.l2.geom.ways + 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.alpha = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.modules = 3;  // does not divide 4096
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.l2.banks = 3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.edram.retention_us = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.l1.geom.line_bytes = 32;  // mismatched line sizes
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
}

TEST(Table, AlignsAndSeparates) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "0.97"});
  t.add_separator();
  t.add_row({"average", "1.09"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("0.97"), std::string::npos);
  EXPECT_NE(s.find("average"), std::string::npos);
  // Header rule + separator + top/bottom rules = at least 4 rules.
  std::size_t rules = 0;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) rules += line.starts_with('+');
  EXPECT_GE(rules, 4u);
}

TEST(Table, Fmt) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_bytes(4ULL * 1024 * 1024), "4MB");
  EXPECT_EQ(fmt_bytes(32ULL * 1024), "32KB");
  EXPECT_EQ(fmt_bytes(100), "100B");
}

TEST(Csv, EscapesSpecialCells) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a,b", "plain", "with \"quote\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",plain,\"with \"\"quote\"\"\"");
  std::filesystem::remove(path);
}

TEST(Env, ReadsAndFallsBack) {
  ::setenv("ESTEEM_TEST_ENV_U64", "1234", 1);
  EXPECT_EQ(env_u64("ESTEEM_TEST_ENV_U64", 7), 1234u);
  ::unsetenv("ESTEEM_TEST_ENV_U64");
  EXPECT_EQ(env_u64("ESTEEM_TEST_ENV_U64", 7), 7u);
  ::setenv("ESTEEM_TEST_ENV_U64", "not-a-number", 1);
  EXPECT_EQ(env_u64("ESTEEM_TEST_ENV_U64", 7), 7u);
  ::unsetenv("ESTEEM_TEST_ENV_U64");
  EXPECT_EQ(env_str("ESTEEM_TEST_ENV_STR", "dflt"), "dflt");
}

// ---------------------------------------------------------------------------
// json::parse and the scalar helpers

using Kind = json::Value::Kind;

TEST(Json, ParsesAnOrderedTreeAndFindReturnsTheFirstMatch) {
  const auto v = json::parse(R"( {"b": 1, "a": [{}, [], "x"], "b": 2} )");
  ASSERT_TRUE(v);
  ASSERT_TRUE(v->is(Kind::Object));
  ASSERT_EQ(v->members.size(), 3u);
  EXPECT_EQ(v->members[0].first, "b");
  EXPECT_EQ(v->members[1].first, "a");
  EXPECT_EQ(v->members[2].second.text, "2");
  EXPECT_EQ(v->find("b")->text, "1");
  EXPECT_EQ(v->find("missing"), nullptr);
  const json::Value& a = *v->find("a");
  ASSERT_EQ(a.items.size(), 3u);
  EXPECT_TRUE(a.items[0].is(Kind::Object));
  EXPECT_TRUE(a.items[1].is(Kind::Array));
  EXPECT_TRUE(a.items[2].is(Kind::String));
  EXPECT_EQ(a.items[2].text, "x");
  EXPECT_EQ(a.find("x"), nullptr);  // find() looks at object members only
}

TEST(Json, NumbersKeepTheirTokenTextAndConvertExactly) {
  const auto v = json::parse("[18446744073709551615, -9223372036854775808, 1e-05, -nan]");
  ASSERT_TRUE(v);
  ASSERT_EQ(v->items.size(), 4u);
  EXPECT_EQ(v->items[0].text, "18446744073709551615");
  std::uint64_t u = 0;
  ASSERT_TRUE(to_u64(v->items[0].text, u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  std::int64_t i = 0;
  ASSERT_TRUE(to_i64(v->items[1].text, i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v->items[2].text, "1e-05");

  // Every double fmt_f64 prints reads back bit-exactly, non-finite included.
  for (const double d : {1.0 / 3.0, -7.02e-17, 1.2345678901234567e18, 5e-324, 0.0, -0.0,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    double back = 1.0;
    ASSERT_TRUE(to_f64(fmt_f64(d), back)) << fmt_f64(d);
    EXPECT_EQ(back, d);
    EXPECT_EQ(std::signbit(back), std::signbit(d));
  }
  for (const double d : {std::nan(""), -std::nan("")}) {
    double back = 0.0;
    ASSERT_TRUE(to_f64(fmt_f64(d), back)) << fmt_f64(d);
    EXPECT_TRUE(std::isnan(back));
    EXPECT_EQ(fmt_f64(back), fmt_f64(d));
  }
}

TEST(Json, DecodesEveryEscapeTheSharedWriterEmits) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all += static_cast<char>(c);
  all += "\xc3\xa9";  // Non-ASCII bytes pass through unescaped.
  const auto v = json::parse("\"" + json_escape(all) + "\"");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->text, all);

  // \u escapes beyond the writer's range, and '\/'.
  const auto u = json::parse(R"("\u00e9\u20ac\/")");
  ASSERT_TRUE(u);
  EXPECT_EQ(u->text, "\xc3\xa9\xe2\x82\xac/");

  EXPECT_EQ(scrub("a\"b\\c\nd"), "a_b_c_d");
}

TEST(Json, RejectsMalformedDocumentsWithAReasonAndOffset) {
  for (const char* bad :
       {"", "   ", "{", "[1,]", "{\"a\"}", "{\"a\":1,}", "{a:1}", "01", "1.", ".5", "+1", "-",
        "1e", "\"\\q\"", "\"\\ud800\"", "\"\\u12\"", "\"a\nb\"", "true", "null", "[1] x",
        "'a'", "infinity", "NaN", "\"unterminated"}) {
    json::ParseError err;
    EXPECT_FALSE(json::parse(bad, &err)) << bad;
    EXPECT_FALSE(err.reason.empty()) << bad;
  }
  json::ParseError err;
  ASSERT_FALSE(json::parse("[1, 2, x]", &err));
  EXPECT_EQ(err.offset, 7u);
  EXPECT_EQ(err.reason, "expected a value");
}

TEST(Json, NestingDeeperThanTheCapIsRejectedNotRecursed) {
  const std::size_t cap = json::kMaxDepth;
  EXPECT_TRUE(json::parse(std::string(cap, '[') + std::string(cap, ']')));
  json::ParseError err;
  EXPECT_FALSE(json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'), &err));
  EXPECT_EQ(err.offset, cap);
  EXPECT_NE(err.reason.find("nesting"), std::string::npos);
  // Deep enough to overflow the stack of an uncapped recursive reader.
  EXPECT_FALSE(json::parse(std::string(2'000'000, '[')));
  EXPECT_FALSE(json::parse(std::string(2'000'000, '{')));
}

TEST(Json, ScalarConversionsRejectOverflowSignsAndWhitespace) {
  std::uint64_t u = 0;
  ASSERT_TRUE(to_u64("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(to_u64("0", u));
  EXPECT_EQ(u, 0u);
  for (const char* bad : {"18446744073709551616", "99999999999999999999", "-1", "+1", " 1",
                          "1 ", "", "1.0", "0x10", "1e3", "2M"}) {
    u = 7;
    EXPECT_FALSE(to_u64(bad, u)) << bad;
    EXPECT_EQ(u, 7u) << bad;  // untouched on rejection
  }

  std::int64_t i = 0;
  ASSERT_TRUE(to_i64("9223372036854775807", i));
  EXPECT_EQ(i, std::numeric_limits<std::int64_t>::max());
  ASSERT_TRUE(to_i64("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"9223372036854775808", "-9223372036854775809", "--1", "+1", "-", "",
                          " -1"}) {
    EXPECT_FALSE(to_i64(bad, i)) << bad;
  }

  double d = 0.0;
  ASSERT_TRUE(to_f64("-1.000", d));
  EXPECT_EQ(d, -1.0);
  for (const char* bad : {"1e999", "0x1p3", " 1", "1.", ".5", "+1", "", "infinity", "nan(1)"}) {
    EXPECT_FALSE(to_f64(bad, d)) << bad;
  }
}

TEST(JsonFuzz, ParseIsTotalOverMutatedDocuments) {
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::string doc =
      R"({"version": 1, "scales": [{"id": "fig3", "x": [1.5, -2e-3, 18446744073709551615],)"
      R"( "w": ["a\"b\\c", "\u00e9\u20ac"]}], "e": {}, "n": []})";
  ASSERT_TRUE(json::parse(doc));

  // Every prefix is a torn document; only the whole one parses.
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_FALSE(json::parse(doc.substr(0, n))) << n;
  }
  // Flips, truncations and inserts must never crash or hang; an accepted
  // mutant parses the same way twice.
  for (int i = 0; i < 3000; ++i) {
    std::string m = doc;
    const int edits = 1 + static_cast<int>(next() % 3);
    for (int e = 0; e < edits; ++e) {
      switch (next() % 3) {
        case 0:
          m[next() % m.size()] = static_cast<char>(next() & 0xFF);
          break;
        case 1:
          m.resize(1 + next() % m.size());
          break;
        default:
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(next() % (m.size() + 1)),
                   static_cast<char>(next() & 0xFF));
          break;
      }
    }
    const auto a = json::parse(m);
    const auto b = json::parse(m);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->members.size(), b->members.size());
    }
  }
}

}  // namespace
}  // namespace esteem
