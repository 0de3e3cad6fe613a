// Postmortem: the crash/abort dump plane. Unit coverage for source
// registration and rendering, file dumps, and the signal handler —
// the latter through a fork()ed child that really dies of SIGABRT.
// Postmortem::global() is process-global state; gtest_discover_tests
// runs each TEST in its own process, so tests don't see each other's
// sources.
#include "obs/postmortem.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hub.hpp"

namespace clash::obs {
namespace {

std::string fresh_dir(const char* tag) {
  static int counter = 0;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/clash_postmortem_%s_%d_%d", tag,
                int(::getpid()), counter++);
  ::mkdir(buf, 0755);
  return buf;
}

std::vector<std::string> dump_files(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("postmortem-", 0) == 0) out.push_back(dir + "/" + name);
  }
  ::closedir(d);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Postmortem, RenderCarriesReasonAndEverySource) {
  Postmortem& pm = Postmortem::global();
  const std::uint64_t a =
      pm.add_source("alpha", [] { return std::string("{\"x\":1}"); });
  const std::uint64_t b =
      pm.add_source("beta", [] { return std::string("[2,3]"); });
  const std::string doc = pm.render("test \"reason\"");
  EXPECT_NE(doc.find("\"schema\":\"clash-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("test \\\"reason\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"alpha\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(doc.find("\"beta\":[2,3]"), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":"), std::string::npos);

  // A removed source disappears; a throwing source must not kill the
  // dump of the others.
  pm.remove_source(b);
  const std::uint64_t c = pm.add_source("gamma", []() -> std::string {
    throw std::runtime_error("boom");
  });
  const std::string doc2 = pm.render("again");
  EXPECT_EQ(doc2.find("\"beta\""), std::string::npos);
  EXPECT_NE(doc2.find("\"alpha\""), std::string::npos);
  EXPECT_NE(doc2.find("\"gamma\":\"<source threw>\""), std::string::npos);
  pm.remove_source(a);
  pm.remove_source(c);
}

TEST(Postmortem, DumpWritesAFileOnlyWhenADirIsSet) {
  Postmortem& pm = Postmortem::global();
  EXPECT_EQ(pm.dump("no dir yet"), "");
  EXPECT_EQ(pm.dumps(), 0u);

  const std::string dir = fresh_dir("dump");
  pm.set_dir(dir);
  const std::uint64_t src =
      pm.add_source("hub", [] { return std::string("{\"ok\":true}"); });
  const std::string path = pm.dump("gate failure");
  ASSERT_NE(path, "");
  EXPECT_EQ(pm.dumps(), 1u);
  EXPECT_EQ(path.rfind(dir + "/postmortem-", 0), 0u);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"reason\":\"gate failure\""), std::string::npos);
  EXPECT_NE(body.find("\"hub\":{\"ok\":true}"), std::string::npos);
  EXPECT_EQ(dump_files(dir).size(), 1u);
  // A second dump gets a distinct ordinal, so nothing is overwritten.
  ASSERT_NE(pm.dump("second"), "");
  EXPECT_EQ(dump_files(dir).size(), 2u);
  pm.remove_source(src);
  pm.set_dir("");
}

TEST(Postmortem, HubSourceRendersFlightAndInflight) {
  Postmortem& pm = Postmortem::global();
  Hub hub;
  hub.tracer.record(SpanKind::kEpochBump, 1, SimTime{50}, SimDuration{0}, 7,
                    2);
  // Traced spans share the ring, so the dump carries them too.
  hub.tracer.set_enabled(true);
  hub.tracer.record(SpanKind::kIngest, 1, SimTime{55}, SimDuration{0}, 0, 0,
                    0xC0FFEE);
  (void)hub.inflight.begin(OpKind::kRecoveryPull, 1, "01*", 3, 60);
  const std::uint64_t id =
      register_hub_source(pm, hub, "node1", [] { return std::int64_t{99}; });
  const std::string doc = pm.render("probe");
  EXPECT_NE(doc.find("\"node1\":{\"flight\":"), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"epoch_bump\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"ingest\""), std::string::npos);
  EXPECT_NE(doc.find(std::to_string(0xC0FFEE)), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"recovery_pull\""), std::string::npos);
  EXPECT_NE(doc.find("\"now_us\":99"), std::string::npos);
  pm.remove_source(id);
}

TEST(Postmortem, CrashHandlerDumpsThenDiesOfTheOriginalSignal) {
  const std::string dir = fresh_dir("crash");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a node that registers its black box, installs the crash
    // handler, then hits an abort() path. No gtest machinery from
    // here on — the process must die of the re-raised signal.
    Postmortem& pm = Postmortem::global();
    pm.set_dir(dir);
    Hub hub;
    hub.tracer.record(SpanKind::kInvariantFail, 4, SimTime{123},
                      SimDuration{0}, 77);
    register_hub_source(pm, hub, "node4", [] { return std::int64_t{200}; });
    pm.install_crash_handler();
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // The handler re-raises with default disposition: the parent sees
  // the true cause of death, not a clean exit.
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const auto dumps = dump_files(dir);
  ASSERT_EQ(dumps.size(), 1u);
  const std::string body = slurp(dumps[0]);
  EXPECT_NE(body.find("\"reason\":\"SIGABRT\""), std::string::npos);
  EXPECT_NE(body.find("\"node4\":{\"flight\":"), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"invariant_fail\""), std::string::npos);
  EXPECT_NE(body.find("\"a\":77"), std::string::npos);
}

}  // namespace
}  // namespace clash::obs
