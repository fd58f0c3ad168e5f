// Tests for trace file recording and replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "cpu/system.hpp"
#include "trace/file_trace.hpp"
#include "trace/patterns.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::trace {
namespace {

// Each test writes its own file under the temp directory (test name plus
// pid), so parallel ctest processes and concurrent build trees never share
// one.
class FileTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }
  const std::string path_ =
      (std::filesystem::temp_directory_path() /
       ("esteem_file_trace_" +
        std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        "_" + std::to_string(::getpid()) + ".etr"))
          .string();
};

TEST_F(FileTraceTest, RoundTripsReferences) {
  {
    TraceFileWriter writer(path_);
    writer.write({0x1234, 7, false});
    writer.write({0xABCDEF, 0, true});
    writer.write({42, 3, false});
    EXPECT_EQ(writer.records_written(), 3u);
  }
  FileTraceGenerator gen(path_);
  EXPECT_EQ(gen.records(), 3u);

  MemRef r = gen.next();
  EXPECT_EQ(r.block, 0x1234u);
  EXPECT_EQ(r.gap, 7u);
  EXPECT_FALSE(r.is_store);
  r = gen.next();
  EXPECT_EQ(r.block, 0xABCDEFu);
  EXPECT_TRUE(r.is_store);
  r = gen.next();
  EXPECT_EQ(r.block, 42u);

  // Wraps around and counts the loop.
  r = gen.next();
  EXPECT_EQ(r.block, 0x1234u);
  EXPECT_EQ(gen.loop_count(), 1u);
}

TEST_F(FileTraceTest, RecordTraceCapturesGenerator) {
  const auto& profile = profile_by_name("gobmk");
  auto gen = make_generator(profile, {4096, 64}, 7);
  record_trace(*gen, path_, 500);

  auto replay = make_generator(profile, {4096, 64}, 7);
  FileTraceGenerator from_file(path_);
  ASSERT_EQ(from_file.records(), 500u);
  for (int i = 0; i < 500; ++i) {
    const MemRef a = replay->next();
    const MemRef b = from_file.next();
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(a.is_store, b.is_store);
  }
}

TEST_F(FileTraceTest, CommentsAndBadInputs) {
  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n# comment line\n3 L ff\n\n0 S 10\n";
  }
  FileTraceGenerator gen(path_);
  EXPECT_EQ(gen.records(), 2u);
  EXPECT_EQ(gen.next().block, 0xFFu);

  {
    std::ofstream out(path_);
    out << "NOT-A-TRACE\n";
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);

  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n1 X ff\n";  // bad kind
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);

  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n";  // no records
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);
  EXPECT_THROW(FileTraceGenerator{"/nonexistent.etr"}, std::runtime_error);
}

TEST_F(FileTraceTest, SystemReplaysTraceWorkload) {
  const auto& profile = profile_by_name("gamess");
  auto gen = make_generator(profile, {4096, 64}, 11);
  record_trace(*gen, path_, 20'000);

  SystemConfig cfg = SystemConfig::single_core();
  cfg.esteem.interval_cycles = 2 * cfg.retention_cycles();
  cpu::System system(cfg, cpu::Technique::Esteem, {"trace:" + path_}, 11);
  cpu::RunOptions opt;
  opt.instr_per_core = 100'000;
  const cpu::RawRunResult r = system.run(opt);
  EXPECT_GT(r.ipc[0], 0.0);
  EXPECT_GT(r.refreshes, 0u);
}

}  // namespace
}  // namespace esteem::trace
