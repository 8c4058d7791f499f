/// The CLI and the service share one parameter check (svc/session.h): each
/// bad input below makes the CLI exit 2 with the bad_request message the
/// service returns for the same param. A flag whose text is not a number
/// meets the same check as an out-of-range value, so its service-side twin
/// sends one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <thread>

#include "cli/cli.h"
#include "io/json.h"
#include "svc/client.h"
#include "svc/server.h"

namespace tfc::cli {
namespace {

struct RejectedInput {
  const char* name;               ///< case name in the ctest listing
  std::vector<std::string> args;  ///< tfcool arguments
  const char* method;             ///< the service method the command mirrors
  const char* params;             ///< the same input as service params
};

void PrintTo(const RejectedInput& c, std::ostream* os) { *os << c.name; }

const RejectedInput kRejected[] = {
    // stoul wrapped -1 to 2^64 points: this case used to run until killed.
    {"sweep_points_minus_1", {"sweep", "--points", "-1"}, "sweep", R"({"points": -1})"},
    {"sweep_points_0", {"sweep", "--points", "0"}, "sweep", R"({"points": 0})"},
    {"sweep_max_fraction_1.5", {"sweep", "--max-fraction", "1.5"}, "sweep",
     R"({"max_fraction": 1.5})"},
    {"chip_hcx", {"design", "--chip", "hcx"}, "design", R"({"chip": "hcx"})"},
    {"chip_hc0", {"design", "--chip", "hc0"}, "design", R"({"chip": "hc0"})"},
    {"chip_hc100", {"design", "--chip", "hc100"}, "design", R"({"chip": "hc100"})"},
    {"limit_abc", {"design", "--limit", "abc"}, "design", R"({"limit": -1})"},
    {"limit_minus_5", {"design", "--limit", "-5"}, "design", R"({"limit": -5})"},
    {"simulate_steps_0", {"simulate", "--steps", "0"}, "simulate", R"({"steps": 0})"},
};

class RejectedLikeTheService : public ::testing::TestWithParam<RejectedInput> {};

TEST_P(RejectedLikeTheService, ExitsTwoWithTheServiceMessage) {
  const RejectedInput& c = GetParam();

  svc::ServerOptions options;
  options.socket_path = (std::filesystem::temp_directory_path() /
                         ("tfc_cli_params_" + std::to_string(::getpid()) + ".sock"))
                            .string();
  options.workers = 1;
  svc::Server server(options);
  std::thread serving([&server] { server.run(); });
  auto client = svc::Client::connect_unix(options.socket_path);
  const auto reply = client.call(c.method, io::parse_json(c.params));
  server.request_stop();
  serving.join();
  ASSERT_FALSE(reply.at("ok").as_bool()) << reply.dump();
  ASSERT_EQ(reply.at("error").at("code").as_string(), "bad_request");
  const std::string message = reply.at("error").at("message").as_string();

  std::ostringstream out, err;
  EXPECT_EQ(run_cli(c.args, out, err), 2);
  EXPECT_EQ(err.str(), "error: " + message + "\n");
}

// Default index names plus PrintTo: ctest lists each case by its name.
INSTANTIATE_TEST_SUITE_P(RejectedInputs, RejectedLikeTheService,
                         ::testing::ValuesIn(kRejected));

}  // namespace
}  // namespace tfc::cli
