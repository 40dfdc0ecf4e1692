#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cacqr/tune/cache.hpp"

namespace cacqr::tune {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CacheFixture : ::testing::Test {
  void SetUp() override {
    dir = (fs::temp_directory_path() /
           ("cacqr_cache_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
  std::string dir;
};

Plan sample_plan() {
  Plan p;
  p.algo = "ca_cqr2";
  p.c = 2;
  p.d = 2;
  p.predicted_seconds = 0.125;
  p.measured_seconds = 0.25;
  p.source = "measured";
  return p;
}

TEST_F(CacheFixture, RoundTripIsIdentical) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  const Plan plan = sample_plan();
  cache.store("fp-a", key, plan);

  auto loaded = cache.load("fp-a", key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->algo, plan.algo);
  EXPECT_EQ(loaded->c, plan.c);
  EXPECT_EQ(loaded->d, plan.d);
  EXPECT_EQ(loaded->pr, plan.pr);
  EXPECT_EQ(loaded->pc, plan.pc);
  EXPECT_EQ(loaded->block, plan.block);
  EXPECT_EQ(loaded->predicted_seconds, plan.predicted_seconds);
  EXPECT_EQ(loaded->measured_seconds, plan.measured_seconds);
  EXPECT_EQ(loaded->source, "cache");  // provenance is rewritten on load
}

TEST_F(CacheFixture, SerializationIsDeterministic) {
  const PlanCache cache(dir);
  const ProblemKey k1{8192, 128, 8, 1};
  const ProblemKey k2{1024, 64, 4, 2};
  // Insert in one order...
  cache.store("fp-a", k1, sample_plan());
  cache.store("fp-a", k2, sample_plan());
  const std::string text_a = read_file(cache.plans_path("fp-a"));
  // ...and the reverse order into a second cache: byte-identical files
  // (keys are sorted on write; numbers are shortest-round-trip).
  const std::string dir_b = dir + "-b";
  const PlanCache cache_b(dir_b);
  cache_b.store("fp-a", k2, sample_plan());
  cache_b.store("fp-a", k1, sample_plan());
  EXPECT_EQ(text_a, read_file(cache_b.plans_path("fp-a")));
  // Re-storing an existing entry is a no-op on the bytes.
  cache.store("fp-a", k1, sample_plan());
  EXPECT_EQ(text_a, read_file(cache.plans_path("fp-a")));
  fs::remove_all(dir_b);
}

TEST_F(CacheFixture, MissesOnUnknownKeyOrFingerprint) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  EXPECT_FALSE(cache.load("fp-b", key).has_value());
  EXPECT_FALSE(cache.load("fp-a", ProblemKey{8192, 128, 8, 2}).has_value());
}

TEST_F(CacheFixture, CorruptedFileIsIgnoredNotFatal) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  const std::string path = cache.plans_path("fp-a");

  for (const char* garbage :
       {"not json at all", "{\"schema\": 1, \"plans\": [truncated",
        "[1, 2, 3]", ""}) {
    std::ofstream(path, std::ios::trunc) << garbage;
    EXPECT_FALSE(cache.load("fp-a", key).has_value()) << garbage;
    // And storing over garbage recovers the file.
    cache.store("fp-a", key, sample_plan());
    EXPECT_TRUE(cache.load("fp-a", key).has_value()) << garbage;
  }
}

TEST_F(CacheFixture, WrongSchemaVersionIsIgnored) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());
  // Rewrite the envelope with a future schema version: entries must be
  // invisible (old binaries never misread new formats).
  std::string text = read_file(cache.plans_path("fp-a"));
  const auto pos = text.find("\"schema\": 1");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 11, "\"schema\": 99");
  std::ofstream(cache.plans_path("fp-a"), std::ios::trunc) << text;
  EXPECT_FALSE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, MalformedPlanEntryIsIgnored) {
  const PlanCache cache(dir);
  const ProblemKey key{8192, 128, 8, 1};
  // Unknown variants must be rejected on load, the retired 1D family's
  // tag included (c = 1 plans are ca_cqr2 plans).
  for (const char* algo : {"quantum_qr", "cqr_1d"}) {
    Plan bad = sample_plan();
    bad.algo = algo;
    cache.store("fp-a", key, bad);
    EXPECT_FALSE(cache.load("fp-a", key).has_value()) << algo;
  }
}

TEST_F(CacheFixture, DisabledCacheIsInert) {
  const PlanCache cache;  // no directory
  EXPECT_FALSE(cache.enabled());
  const ProblemKey key{8192, 128, 8, 1};
  cache.store("fp-a", key, sample_plan());  // no-op, no crash
  EXPECT_FALSE(cache.load("fp-a", key).has_value());
}

TEST_F(CacheFixture, ProfileRoundTrip) {
  const PlanCache cache(dir);
  MachineProfile p = generic_profile();
  p.machine.alpha_s = 3.25e-7;
  p.kernels.push_back({"gemm_nn", 384, 384, 384, 17.5});
  p.scaling.push_back({4, 2.5});
  cache.store_profile(p);

  auto loaded = cache.load_profile(p.host);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->host, p.host);
  EXPECT_EQ(loaded->machine.alpha_s, p.machine.alpha_s);
  EXPECT_EQ(loaded->machine.beta_s, p.machine.beta_s);
  EXPECT_EQ(loaded->machine.gamma_s, p.machine.gamma_s);
  ASSERT_EQ(loaded->kernels.size(), 1u);
  EXPECT_EQ(loaded->kernels[0].gflops, 17.5);
  EXPECT_EQ(loaded->thread_speedup(4), 2.5);
  EXPECT_EQ(loaded->fingerprint(), p.fingerprint());

  EXPECT_FALSE(cache.load_profile("some-other-host").has_value());
}

TEST_F(CacheFixture, FromEnvRespectsUnsetAndSet) {
  // The env var is read at call time so tests can repoint it; restore
  // whatever the surrounding ctest pass had exported.
  const char* orig = std::getenv("CACQR_TUNE_DIR");
  const std::string saved = orig != nullptr ? orig : "";
  ::unsetenv("CACQR_TUNE_DIR");
  EXPECT_FALSE(PlanCache::from_env().enabled());
  ::setenv("CACQR_TUNE_DIR", dir.c_str(), 1);
  const PlanCache cache = PlanCache::from_env();
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.dir(), dir);
  if (orig != nullptr) {
    ::setenv("CACQR_TUNE_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("CACQR_TUNE_DIR");
  }
}

}  // namespace
}  // namespace cacqr::tune
