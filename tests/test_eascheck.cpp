// End-to-end tests for the eascheck static analyzer. Each test runs the real
// binary over a fixture tree under tests/eascheck_fixtures/ and asserts the
// exact finding counts, rule ids and exit code, so any behavioural drift in
// the lexer or a rule engine fails loudly.
//
// The final tests run eascheck over the repository itself: the tree must be
// clean, and the layering manifest must be *exact* — every allow-rule backed
// by a real include edge — which is what makes "delete a manifest rule"
// detectable.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs the eascheck binary with `args`, capturing stdout+stderr.
RunResult run_eascheck(const std::string& args) {
  const std::string cmd = std::string(EASCHECK_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(EAS_FIXTURE_DIR) + "/" + name;
}

/// Occurrences of `needle` in `haystack` (non-overlapping).
int count_of(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Value of `key=` in the trailing summary line, or -1 when absent.
int summary(const std::string& output, const std::string& key) {
  const std::size_t pos = output.rfind(key + "=");
  if (pos == std::string::npos) return -1;
  return std::atoi(output.c_str() + pos + key.size() + 1);
}

TEST(Eascheck, DeterminismBadFindsEveryBannedConstruct) {
  const RunResult r = run_eascheck("--root " + fixture("determinism_bad") +
                                   " --rules determinism");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 18) << r.output;
  EXPECT_EQ(count_of(r.output, "[determinism-libc-rand]"), 2);
  EXPECT_EQ(count_of(r.output, "[determinism-time-seed]"), 2);
  EXPECT_EQ(count_of(r.output, "[determinism-unordered-iter]"), 3);
  EXPECT_EQ(count_of(r.output, "[determinism-random-device]"), 1);
  EXPECT_EQ(count_of(r.output, "[determinism-system-clock]"), 1);
  EXPECT_EQ(count_of(r.output, "[determinism-fault-stdlib-rng]"), 3);
  EXPECT_EQ(count_of(r.output, "[determinism-obs-wallclock]"), 5);
  EXPECT_EQ(count_of(r.output, "[determinism-std-function-sim]"), 1);
}

TEST(Eascheck, DeterminismGoodIsTokenAccurate) {
  // Comments, strings, raw strings, declarations named `time`, member calls
  // and non-std qualification must all pass. A grep lint fails this test.
  const RunResult r = run_eascheck("--root " + fixture("determinism_good") +
                                   " --rules determinism");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 0) << r.output;
}

TEST(Eascheck, WaiverAccounting) {
  const std::string root = fixture("waivers");
  const RunResult r = run_eascheck("--root " + root + " --rules all" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One justified waiver suppresses silently; the empty reason and the stale
  // waiver are themselves findings.
  EXPECT_EQ(summary(r.output, "findings"), 2) << r.output;
  EXPECT_EQ(summary(r.output, "suppressed"), 2) << r.output;
  EXPECT_EQ(summary(r.output, "waivers"), 3) << r.output;
  EXPECT_EQ(summary(r.output, "stale"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[waiver-empty-reason]"), 1);
  EXPECT_EQ(count_of(r.output, "[waiver-stale]"), 1);
}

TEST(Eascheck, StaleWaiversNotFlaggedOnPartialRuns) {
  // A hot-path waiver must not read as stale when only the determinism
  // engine runs (the wrapper script's mode).
  const std::string root = fixture("waivers");
  const RunResult r = run_eascheck("--root " + root + " --rules determinism" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 1) << r.output;
  EXPECT_EQ(summary(r.output, "stale"), 0) << r.output;
  EXPECT_EQ(count_of(r.output, "[waiver-stale]"), 0);
  EXPECT_EQ(count_of(r.output, "[waiver-empty-reason]"), 1);
}

TEST(Eascheck, LayeringForbiddenAndUnknown) {
  const std::string root = fixture("layering_bad");
  const RunResult r = run_eascheck("--root " + root + " --rules layering" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 3) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-forbidden-include]"), 2);
  EXPECT_EQ(count_of(r.output, "[layering-unknown-module]"), 1);
  // The allowed edges sim->util and obs->util are exercised, so no
  // unused-rule noise.
  EXPECT_EQ(count_of(r.output, "[layering-unused-rule]"), 0);
}

TEST(Eascheck, LayeringUnusedRuleIsAnError) {
  const std::string root = fixture("layering_unused");
  const RunResult r = run_eascheck("--root " + root + " --rules layering" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-unused-rule]"), 1);
}

TEST(Eascheck, CacheLayeringPinsForbiddenSimCacheEdge) {
  // The storage layer owns all cache wiring; the event kernel must never
  // include the cache tier. Both allowed edges (cache->util, sim->util) are
  // exercised so the single finding is the pinned forbidden include.
  const std::string root = fixture("cache_layering");
  const RunResult r = run_eascheck("--root " + root + " --rules layering" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-forbidden-include]"), 1);
  EXPECT_NE(r.output.find("sim/kernel.cpp"), std::string::npos) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-unused-rule]"), 0);
}

TEST(Eascheck, ReliabilityLayeringPinsForbiddenSimReliabilityEdge) {
  // The storage layer drives all retry/hedge machinery; the event kernel
  // must never include the reliability tier (it only hands out handles).
  // Because reliability -> sim is a *legal* edge (timer handles), the
  // reverse include is doubly wrong: both the forbidden edge and the cycle
  // it realizes are pinned. All declared edges are exercised, so there is
  // no unused-rule noise.
  const std::string root = fixture("reliability_layering");
  const RunResult r = run_eascheck("--root " + root + " --rules layering" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 2) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-forbidden-include]"), 1);
  EXPECT_EQ(count_of(r.output, "[layering-cycle]"), 1);
  EXPECT_NE(r.output.find("sim/kernel.cpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("reliability -> sim -> reliability"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-unused-rule]"), 0);
}

TEST(Eascheck, LayeringDetectsRealizedCycle) {
  // Both edges are manifest-allowed; the cycle is still rejected.
  const std::string root = fixture("layering_cycle");
  const RunResult r = run_eascheck("--root " + root + " --rules layering" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 1) << r.output;
  EXPECT_EQ(count_of(r.output, "[layering-cycle]"), 1);
  EXPECT_NE(r.output.find("a -> b -> a"), std::string::npos) << r.output;
}

TEST(Eascheck, HotpathBansAllocAndThrow) {
  const std::string root = fixture("hotpath_bad");
  const RunResult r = run_eascheck("--root " + root + " --rules hotpath" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // new[], make_shared and std::vector in hot functions, plus one throw in
  // the no-throw zone. Placement new and the cold-path `new` are exempt.
  EXPECT_EQ(summary(r.output, "findings"), 4) << r.output;
  EXPECT_EQ(count_of(r.output, "[hotpath-heap-alloc]"), 2);
  EXPECT_EQ(count_of(r.output, "[hotpath-std-heap-type]"), 1);
  EXPECT_EQ(count_of(r.output, "[hotpath-throw]"), 1);
}

TEST(Eascheck, HotpathManifestMustTrackTheCode) {
  const std::string root = fixture("hotpath_stale");
  const RunResult r = run_eascheck("--root " + root + " --rules hotpath" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 2) << r.output;
  EXPECT_EQ(count_of(r.output, "[hotpath-missing-function]"), 1);
  EXPECT_EQ(count_of(r.output, "[hotpath-missing-file]"), 1);
}

TEST(Eascheck, ContractsRequiredOnPublicMutators) {
  const RunResult r = run_eascheck("--root " + fixture("contracts_bad") +
                                   " --rules contracts");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 2) << r.output;
  EXPECT_EQ(count_of(r.output, "[contracts-missing]"), 2);
  EXPECT_NE(r.output.find("Disk::set_speed"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Disk::submit"), std::string::npos) << r.output;
}

TEST(Eascheck, CleanFixturePassesAllEngines) {
  const std::string root = fixture("clean");
  const RunResult r = run_eascheck("--root " + root + " --rules all" +
                                   " --manifest " + root + "/layers.toml");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 0) << r.output;
}

TEST(Eascheck, EmptyScanIsAnEnvironmentErrorNotAPass) {
  // The old shell lint silently passed when its file list came up empty;
  // eascheck treats that as a broken invocation (exit 2).
  const RunResult r = run_eascheck("--root " + fixture("clean") +
                                   " --rules determinism --scan no_such_dir");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Eascheck, MalformedManifestIsAnEnvironmentError) {
  const RunResult r = run_eascheck(
      "--root " + fixture("clean") + " --rules layering --manifest " +
      fixture("layering_bad") + "/src/util/timebase.hpp");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Eascheck, RepositoryTreeIsClean) {
  // The gate the CI stage enforces: all four engines over the real tree,
  // zero findings. Because layering-unused-rule is an error, this test also
  // proves the manifest is exact — deleting any [layers] rule turns a real
  // include into a forbidden edge and fails this test.
  const RunResult r = run_eascheck(std::string("--root ") + EAS_REPO_ROOT +
                                   " --rules all");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 0) << r.output;
  // The tree's det-ok waivers (kernel SBO fallback, chunk growth) must be
  // live, not stale.
  EXPECT_GE(summary(r.output, "waivers"), 2) << r.output;
  EXPECT_EQ(summary(r.output, "suppressed"), summary(r.output, "waivers"))
      << r.output;
  EXPECT_EQ(summary(r.output, "stale"), 0) << r.output;
}

TEST(Eascheck, RepositoryDeterminismModeMatchesWrapperContract) {
  // CI's determinism-lint job (and tools/ci.sh's determinism stage) runs
  // exactly this invocation and gates on its exit code; it must be green
  // on the tree.
  const RunResult r = run_eascheck(std::string("--root ") + EAS_REPO_ROOT +
                                   " --rules determinism");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(summary(r.output, "findings"), 0) << r.output;
}

}  // namespace
