/// Engine-vs-pre-engine golden test (extends the PR 2 determinism suite):
/// `tfcool design --json` must be byte-identical to the fixtures captured at
/// the pre-engine HEAD for alpha21364 and hc3, and stay byte-identical
/// across every --backend and across thread counts. The design probe path
/// never runs on the selectable backend (the TEC-block model, with near-ties
/// and the read-back on the direct sparse Cholesky refactorization)
/// precisely so the backend choice cannot perturb this output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "par/thread_pool.h"

namespace tfc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string design_json(const std::vector<std::string>& extra_args) {
  const std::string path = "engine_golden_tmp.json";
  std::vector<std::string> args = {"design", "--no-full-cover", "--json", path};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::ostringstream out, err;
  const int code = cli::run_cli(args, out, err);
  EXPECT_EQ(code, 0) << err.str();
  const std::string text = slurp(path);
  std::remove(path.c_str());
  par::ThreadPool::set_global_threads(0);
  return text;
}

std::string fixture(const std::string& name) {
  return slurp(std::string(TFC_TEST_DATA_DIR) + "/" + name);
}

TEST(EngineGolden, AlphaDesignJsonMatchesPreEngineFixture) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "alpha"}), golden);
}

TEST(EngineGolden, Hc3DesignJsonMatchesPreEngineFixture) {
  const std::string golden = fixture("golden_design_hc3.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "hc3"}), golden);
}

TEST(EngineGolden, ByteIdenticalAcrossBackends) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  for (const char* backend : {"cholesky", "cg"}) {
    EXPECT_EQ(design_json({"--chip", "alpha", "--backend", backend}), golden)
        << backend;
  }
}

TEST(EngineGolden, ByteIdenticalAcrossThreadCounts) {
  const std::string golden = fixture("golden_design_hc3.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "1"}), golden);
  EXPECT_EQ(design_json({"--chip", "hc3", "--threads", "8"}), golden);
}

TEST(EngineGolden, ByteIdenticalAcrossBackendThreadMatrix) {
  const std::string golden = fixture("golden_design_alpha.json");
  ASSERT_FALSE(golden.empty());
  for (const char* backend : {"cg"}) {
    for (const char* threads : {"1", "8"}) {
      EXPECT_EQ(design_json({"--chip", "alpha", "--backend", backend,
                             "--threads", threads}),
                golden)
          << backend << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace tfc
