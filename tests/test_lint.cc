// Tests for spp-lint (docs/STATIC_ANALYSIS.md): the fixtures under
// tests/lint_fixtures/ must all be flagged (self-test), the real tree must
// lint clean, and the arch-mutation inventory must come out well-formed.
//
// The binary is built by this same tree (SPP_LINT=ON); if it is missing --
// e.g. a build configured with -DSPP_LINT=OFF -- the tests skip loudly
// instead of passing vacuously.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

#ifndef SPP_LINT_BIN
#define SPP_LINT_BIN ""
#endif
#ifndef SPP_REPO_ROOT
#define SPP_REPO_ROOT "."
#endif

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// Runs `cmd` with stderr folded into stdout; returns exit code + output.
RunResult run(const std::string& cmd) {
  RunResult r;
  std::FILE* p = ::popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, got);
  const int status = ::pclose(p);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

bool lint_available() {
  std::ifstream f(SPP_LINT_BIN);
  return f.good();
}

#define REQUIRE_LINT()                                                       \
  if (!lint_available()) {                                                   \
    GTEST_SKIP() << "spp-lint binary not found at '" << SPP_LINT_BIN         \
                 << "' -- configure with -DSPP_LINT=ON to run these tests";  \
  }

std::string repo_root() { return SPP_REPO_ROOT; }
std::string lint_bin() { return SPP_LINT_BIN; }

TEST(Lint, SelfTestFlagsEveryFixture) {
  REQUIRE_LINT();
  const RunResult r =
      run(lint_bin() + " --self-test " + repo_root() + "/tests/lint_fixtures");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("0 failures"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("FAIL"), std::string::npos) << r.out;
  // Every check must be exercised by at least one fixture.
  EXPECT_NE(r.out.find("wallclock.cc"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("host_thread.cc"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("posix_io.cc"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("arch_mutation.cc"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("digest_iter.cc"), std::string::npos) << r.out;
}

TEST(Lint, TreeIsClean) {
  REQUIRE_LINT();
  const RunResult r = run(lint_bin() + " --repo-root " + repo_root());
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find(" 0 findings"), std::string::npos) << r.out;
}

TEST(Lint, EmitsMutationInventory) {
  REQUIRE_LINT();
  const std::string json =
      ::testing::TempDir() + "spp_lint_arch_mutations.json";
  const RunResult r = run(lint_bin() + " --repo-root " + repo_root() +
                          " --json-out " + json);
  ASSERT_EQ(r.exit_code, 0) << r.out;

  std::ifstream in(json);
  ASSERT_TRUE(in.good()) << "inventory not written: " << json;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"generated_by\": \"spp-lint\""), std::string::npos);
  EXPECT_NE(content.find("\"schema\": 1"), std::string::npos);
  // The tree has real charged accessors, counter bumps, and cold-path
  // controls; an inventory without all three kinds means the classifier
  // regressed.
  EXPECT_NE(content.find("\"kind\": \"charged\""), std::string::npos);
  EXPECT_NE(content.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(content.find("\"kind\": \"control\""), std::string::npos);
  // Violation kinds must not appear in a clean tree.
  EXPECT_EQ(content.find("\"kind\": \"forbidden\""), std::string::npos);
  EXPECT_EQ(content.find("\"kind\": \"uncharged\""), std::string::npos);
  std::remove(json.c_str());
}

TEST(Lint, SeededViolationGatesTheRun) {
  REQUIRE_LINT();
  // Outside self-test mode a flagged tree must fail with exit 1 -- that is
  // what makes the CI leg gating.  Stage a one-file repo whose src/ holds a
  // seeded wall-clock violation.
  const std::string root = ::testing::TempDir() + "spp_lint_bad_tree";
  const std::string dir = root + "/src/spp/sim";
  ASSERT_EQ(run("mkdir -p " + dir).exit_code, 0);
  {
    std::ofstream f(dir + "/bad.cc");
    ASSERT_TRUE(f.good());
    f << "#include <chrono>\n"
         "double t() { return std::chrono::steady_clock::now()"
         ".time_since_epoch().count(); }\n";
  }
  const RunResult r = run(lint_bin() + " --repo-root " + root);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("[sim-no-wallclock]"), std::string::npos) << r.out;
  run("rm -rf " + root);
}

}  // namespace
