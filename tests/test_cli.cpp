// osn-analyze option handling: an option no subcommand reads is refused
// with the usage text and exit 2, before any work runs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "golden.hpp"

namespace {

struct CliResult {
  int status = -1;  ///< exit code; -1 when the process did not exit normally
  std::string err;  ///< its stderr
};

/// Runs `osn-analyze <args>` with `dir` as the working directory.
CliResult cli_in(const std::string& dir, const std::string& args) {
  const std::string err_path = dir + "/stderr.txt";
  const std::string line = "cd \"" + dir + "\" && \"" + OSN_ANALYZE_BIN + "\" " + args +
                           " > /dev/null 2> \"" + err_path + "\"";
  const int status = std::system(line.c_str());
  CliResult out;
  out.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const auto bytes = osn::testing::file_bytes(err_path);
  out.err.assign(bytes.begin(), bytes.end());
  std::remove(err_path.c_str());
  return out;
}

TEST(Cli, UnknownOptionsAreRefusedWithUsage) {
  // Per process: ctest runs each test as its own process, in parallel.
  const std::string dir =
      ::testing::TempDir() + "/cli_unknown_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // A retired flag and a misspelled one: neither may fall back to defaults.
  // The trace need not exist — the options are checked first.
  const CliResult stats = cli_in(dir, "stats t.osnt --io pread --jbos 3");
  EXPECT_EQ(stats.status, 2);
  EXPECT_NE(stats.err.find("unknown option --io"), std::string::npos) << stats.err;
  EXPECT_NE(stats.err.find("osn-analyze stats <trace.osnt>"), std::string::npos)
      << "usage text expected: " << stats.err;

  // `--out` is not `-o`: the run must not silently write ./ftq.osnt.
  const CliResult run = cli_in(dir, "run ftq --out x.osnt --seconds 1");
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.err.find("unknown option --out"), std::string::npos) << run.err;
  EXPECT_FALSE(std::filesystem::exists(dir + "/ftq.osnt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/x.osnt"));

  std::filesystem::remove_all(dir);
}

}  // namespace
