// Unit tests for the paper-fidelity validation layer: fidelity statistics
// (Spearman with ties, sign agreement, tolerance bands), the golden-file
// round trip, the scale fingerprint that keys golden entries, and the
// per-figure journal directories behind `esteem_validate --journal-dir`.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "sim/run_cache.hpp"
#include "validation/fidelity.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"
#include "validation/scale.hpp"

namespace esteem::validation {
namespace {

// ---------------------------------------------------------------------------
// rank_with_ties / spearman
// ---------------------------------------------------------------------------

TEST(RankWithTies, DistinctValuesGetOrdinalRanks) {
  const std::vector<double> ranks = rank_with_ties({30.0, 10.0, 20.0});
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(RankWithTies, TiesShareTheAverageRank) {
  // 5 appears at sorted positions 2 and 3 -> both rank 2.5.
  const std::vector<double> ranks = rank_with_ties({5.0, 1.0, 5.0, 9.0});
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Spearman, PerfectMonotoneAgreementIsOne) {
  // Monotone but non-linear: rank correlation sees a perfect relationship.
  EXPECT_DOUBLE_EQ(spearman({1.0, 2.0, 3.0, 4.0}, {1.0, 4.0, 9.0, 16.0}), 1.0);
}

TEST(Spearman, ReversedOrderIsMinusOne) {
  EXPECT_DOUBLE_EQ(spearman({1.0, 2.0, 3.0, 4.0}, {8.0, 6.0, 4.0, 2.0}), -1.0);
}

TEST(Spearman, TiesStillYieldPerfectCorrelationWhenOrdersMatch) {
  // Identical tie structure on both sides keeps rho at exactly 1.
  const std::vector<double> a{1.0, 2.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(spearman(a, b), 1.0);
}

TEST(Spearman, UndefinedCasesReturnNaN) {
  EXPECT_TRUE(std::isnan(spearman({1.0, 2.0}, {1.0})));        // size mismatch
  EXPECT_TRUE(std::isnan(spearman({1.0}, {1.0})));             // < 2 pairs
  EXPECT_TRUE(std::isnan(spearman({3.0, 3.0}, {1.0, 2.0})));   // constant side
}

// ---------------------------------------------------------------------------
// sign_agreement / BandCheck
// ---------------------------------------------------------------------------

TEST(SignAgreement, CountsAgreeingClaims) {
  const std::vector<SignClaim> claims{
      {"a", true, true}, {"b", true, false}, {"c", false, false}};
  EXPECT_DOUBLE_EQ(sign_agreement(claims), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(sign_agreement({}), 1.0);
}

TEST(BandCheck, RelativeBand) {
  BandCheck b{"rel", 103.0, 100.0, 0.05, true};
  EXPECT_NEAR(b.error(), 0.03, 1e-12);
  EXPECT_TRUE(b.pass());
  b.measured = 106.0;
  EXPECT_FALSE(b.pass());
}

TEST(BandCheck, AbsoluteBand) {
  BandCheck b{"abs", 1.004, 1.0, 0.01, false};
  EXPECT_TRUE(b.pass());
  b.measured = 1.02;
  EXPECT_FALSE(b.pass());
}

TEST(BandCheck, NearZeroReferenceReadsAsLargeRelativeError) {
  const BandCheck b{"zero-ref", 0.5, 0.0, 0.10, true};
  EXPECT_FALSE(b.pass());
}

// ---------------------------------------------------------------------------
// Golden file round trip
// ---------------------------------------------------------------------------

GoldenFile sample_golden() {
  GoldenFile file;
  file.generator = "unit test \"quoted\"\nsecond line";
  GoldenScale scale;
  scale.fingerprint = "v1;instr=300000;warmup=60000;seed=42;ifactor=4;hyst=2;shrink=2";
  scale.label = "smoke";
  GoldenFigure fig;
  fig.id = "fig3";
  fig.esteem_energy_pct = 23.456789012345678;
  fig.rpv_energy_pct = 19.75;
  fig.esteem_ws = 1.0009765625;
  fig.rpv_ws = 0.999;
  fig.esteem_rpki_dec = 433.25;
  fig.rpv_rpki_dec = 161.5;
  fig.esteem_mpki_inc = 0.125;
  fig.esteem_active_pct = 57.3;
  fig.workloads = {"gamess", "mcf", "h264ref"};
  fig.esteem_energy_savings = {30.1, 10.2, 25.3};
  fig.rpv_energy_savings = {20.0, 8.0, 15.0};
  scale.figures.push_back(fig);
  file.scales.push_back(scale);
  return file;
}

TEST(Golden, RoundTripIsExact) {
  const GoldenFile before = sample_golden();
  const GoldenFile after = golden_from_json(golden_to_json(before));

  ASSERT_EQ(after.scales.size(), 1u);
  EXPECT_EQ(after.generator, before.generator);
  const GoldenScale& s = after.scales[0];
  EXPECT_EQ(s.fingerprint, before.scales[0].fingerprint);
  EXPECT_EQ(s.label, "smoke");
  ASSERT_EQ(s.figures.size(), 1u);
  const GoldenFigure& a = s.figures[0];
  const GoldenFigure& b = before.scales[0].figures[0];
  // %.17g serialization: doubles survive bit-exactly.
  EXPECT_EQ(a.esteem_energy_pct, b.esteem_energy_pct);
  EXPECT_EQ(a.esteem_ws, b.esteem_ws);
  EXPECT_EQ(a.workloads, b.workloads);
  EXPECT_EQ(a.esteem_energy_savings, b.esteem_energy_savings);
  EXPECT_EQ(a.rpv_energy_savings, b.rpv_energy_savings);
}

TEST(Golden, SerializationIsStable) {
  // Render -> parse -> render must be byte-identical (CI diffs the file).
  const std::string once = golden_to_json(sample_golden());
  EXPECT_EQ(golden_to_json(golden_from_json(once)), once);
}

TEST(Golden, VersionMismatchIsRejected) {
  GoldenFile file = sample_golden();
  file.version = kGoldenVersion + 1;
  const std::string json = golden_to_json(file);
  EXPECT_THROW(golden_from_json(json), std::runtime_error);
}

TEST(Golden, MalformedInputIsRejected) {
  EXPECT_THROW(golden_from_json(""), std::runtime_error);
  EXPECT_THROW(golden_from_json("{\"version\": 1"), std::runtime_error);
  EXPECT_THROW(golden_from_json("[1, 2]"), std::runtime_error);
  EXPECT_THROW(golden_from_json("{\"version\": 1, \"generator\": \"g\"}"),
               std::runtime_error);
}

TEST(Golden, FindAndUpsertScale) {
  GoldenFile file = sample_golden();
  EXPECT_NE(file.find_scale(file.scales[0].fingerprint), nullptr);
  EXPECT_EQ(file.find_scale("v1;other"), nullptr);

  GoldenScale replacement = file.scales[0];
  replacement.figures[0].esteem_energy_pct = 99.0;
  file.upsert_scale(replacement);
  ASSERT_EQ(file.scales.size(), 1u);  // replaced, not appended
  EXPECT_DOUBLE_EQ(file.scales[0].figures[0].esteem_energy_pct, 99.0);

  GoldenScale fresh;
  fresh.fingerprint = "v1;other";
  file.upsert_scale(fresh);
  EXPECT_EQ(file.scales.size(), 2u);
}

// ---------------------------------------------------------------------------
// Scale fingerprints and the figure matrix
// ---------------------------------------------------------------------------

TEST(Scale, FingerprintSeparatesScales) {
  EXPECT_NE(scale_fingerprint(smoke_scale()), scale_fingerprint(ScaleSpec{}));
  ScaleSpec a = smoke_scale();
  ScaleSpec b = smoke_scale();
  b.seed = 43;
  EXPECT_NE(scale_fingerprint(a), scale_fingerprint(b));
  b = smoke_scale();
  b.threads = 7;  // threads do not change results, so not in the fingerprint
  EXPECT_EQ(scale_fingerprint(a), scale_fingerprint(b));
}

TEST(Figures, MatrixCoversAllFourFiguresWithDistinctConfigs) {
  ASSERT_EQ(figure_matrix().size(), 4u);
  EXPECT_NE(find_figure("fig3"), nullptr);
  EXPECT_EQ(find_figure("fig9"), nullptr);

  const ScaleSpec scale = smoke_scale();
  const SystemConfig f3 = figure_config(*find_figure("fig3"), scale);
  const SystemConfig f4 = figure_config(*find_figure("fig4"), scale);
  const SystemConfig f5 = figure_config(*find_figure("fig5"), scale);
  EXPECT_EQ(f3.ncores, 1u);
  EXPECT_EQ(f4.ncores, 2u);
  EXPECT_DOUBLE_EQ(f3.edram.retention_us, 50.0);
  EXPECT_DOUBLE_EQ(f5.edram.retention_us, 40.0);
  // The scaled interval is floored at one retention period, so the 40 us
  // figure floors lower than the 50 us one at smoke scale.
  EXPECT_LE(f5.esteem.interval_cycles, f3.esteem.interval_cycles);
}

// `esteem_validate --journal-dir`: two seeds journaled into one dir each get
// a subdir of their own, and a rerun of either resumes from it alone.
TEST(Figures, JournalDirGivesEachSweepItsOwnResumableSubdir) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "esteem-validate-journal";
  fs::remove_all(root);
  FigureRunOptions options;
  options.journal_dir = root.string();
  const FigureSpec& fig = *find_figure("fig3");
  ScaleSpec seed1 = smoke_scale();
  seed1.seed = 1;
  ScaleSpec seed2 = smoke_scale();
  seed2.seed = 2;

  const FigureResult first1 = run_figure(fig, seed1, {}, options);
  const FigureResult first2 = run_figure(fig, seed2, {}, options);
  ASSERT_TRUE(first1.sweep.ok());
  ASSERT_TRUE(first2.sweep.ok());
  EXPECT_NE(first1.esteem_energy_savings(), first2.esteem_energy_savings());
  std::size_t subdirs = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    subdirs += entry.path().filename().string().rfind("fig3-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(subdirs, 2u);

  sim::RunCache::instance().clear();
  for (const auto& [scale, first] : {std::pair{seed1, &first1}, std::pair{seed2, &first2}}) {
    ::testing::internal::CaptureStderr();
    const FigureResult again = run_figure(fig, scale, {}, options);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("fig3: resumed 34 row(s)"), std::string::npos) << err;
    EXPECT_EQ(again.esteem_energy_savings(), first->esteem_energy_savings());
    EXPECT_EQ(again.rpv_energy_savings(), first->rpv_energy_savings());
  }
  EXPECT_EQ(sim::RunCache::instance().stats().misses, 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace esteem::validation
