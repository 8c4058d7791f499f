#include <gtest/gtest.h>

#include <string>

#include "engine/backend.h"

namespace tfc::engine {
namespace {

TEST(Backend, NamesRoundTrip) {
  for (thermal::Backend b : {thermal::Backend::kCholesky, thermal::Backend::kCg}) {
    auto parsed = thermal::parse_backend(thermal::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
}

TEST(Backend, ParseRejectsUnknownNames) {
  EXPECT_FALSE(thermal::parse_backend("").has_value());
  EXPECT_FALSE(thermal::parse_backend("gauss").has_value());
  EXPECT_FALSE(thermal::parse_backend("Cholesky").has_value());  // case-sensitive
  // cut: dense O(n^3), see engine/backend.h
  EXPECT_FALSE(thermal::parse_backend("ldlt").has_value());
}

TEST(Backend, ListMentionsEveryBackend) {
  const std::string list = thermal::backend_list();
  for (thermal::Backend b : {thermal::Backend::kCholesky, thermal::Backend::kCg}) {
    EXPECT_NE(list.find(thermal::backend_name(b)), std::string::npos)
        << thermal::backend_name(b);
  }
}

TEST(Backend, DefaultOptionsUseCholeskyWithIncrementalRestamp) {
  const EngineOptions opts;
  EXPECT_EQ(opts.backend, thermal::Backend::kCholesky);
  EXPECT_TRUE(opts.incremental_restamp);
}

}  // namespace
}  // namespace tfc::engine
