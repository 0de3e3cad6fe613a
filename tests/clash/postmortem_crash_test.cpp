// Acceptance test for the postmortem plane: a server killed in the
// middle of an inbound snapshot transfer must leave a postmortem dump
// whose in-flight table names the transfer — which group, which peer,
// how far it got, and when it last made progress. The child process
// assembles a real partial transfer through ClashServer::deliver, then
// abort()s with the crash handler installed; the parent reads the
// black box the corpse left behind.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "clash/server.hpp"
#include "obs/postmortem.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;

std::string fresh_dir() {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/clash_pm_crash_%d",
                int(::getpid()));
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

ClashConfig log_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  return cfg;
}

TEST(PostmortemCrash, KilledMidSnapshotTransferNamesTheTransfer) {
  const std::string dir = fresh_dir();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- Child: die mid-transfer. ---
    obs::Postmortem& pm = obs::Postmortem::global();
    pm.set_dir(dir);

    testing::MockServerEnv env;  // obs() -> Hub::global()
    ClashServer server(ServerId{9}, log_config(), env,
                       dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
    obs::register_hub_source(pm, obs::Hub::global(), "node9",
                             [&env] { return env.t.usec; });
    pm.install_crash_handler();

    const KeyGroup group = testing::group("0110*", kWidth);
    const repl::LogHead head{1, 5};

    SnapshotOffer offer;
    offer.group = group;
    offer.owner = ServerId{3};
    offer.head = head;
    offer.root = true;
    offer.total_chunks = 3;
    env.t = SimTime{1'000};
    server.deliver(ServerId{3}, Message(offer));

    SnapshotChunk chunk;
    chunk.group = group;
    chunk.head = head;
    chunk.index = 0;
    chunk.total = 3;
    chunk.streams.push_back(
        StreamInfo{ClientId{1}, Key(0x11, kWidth), 2.0});
    env.t = SimTime{4'000};
    server.deliver(ServerId{3}, Message(chunk));

    // Chunks 1 and 2 never arrive — the transfer is wedged in flight
    // when the process dies.
    std::abort();
  }

  // --- Parent: read the black box. ---
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const auto dumps = dump_files(dir);
  ASSERT_EQ(dumps.size(), 1u);
  std::ifstream in(dumps[0]);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();

  // The in-flight table names the wedged transfer: direction, group,
  // peer, how far it got, and the clock of its last progress.
  EXPECT_NE(body.find("\"kind\":\"snapshot_in\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"group\":\"0110*\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"peer\":3"), std::string::npos) << body;
  EXPECT_NE(body.find("\"start_us\":1000"), std::string::npos) << body;
  EXPECT_NE(body.find("\"last_progress_us\":4000"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"progress\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"target\":3"), std::string::npos) << body;

  // The flight ring recorded the offer arriving before the crash.
  EXPECT_NE(body.find("\"kind\":\"snapshot_offer_recv\""),
            std::string::npos)
      << body;
}

}  // namespace
}  // namespace clash
