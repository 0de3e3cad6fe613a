// The simulator carries the bytes a server sends: every message crosses
// the codec on the way, so a receiver sees exactly what the decoder
// made of the frame — the fence verdicts included — and the byte
// counters read the sizes that were carried.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"
#include "wire/codec.hpp"

namespace clash::sim {
namespace {

NodeCensusRecord census_record(std::uint64_t node) {
  NodeCensusRecord rec;
  rec.node = ServerId{node};
  rec.incarnation = 3;
  rec.seq = 7;
  rec.load = 12.5;
  rec.active_groups = 2;
  rec.checksum = wire::census_record_crc(rec);
  return rec;
}

TEST(SimWirePath, CleanLinkGossipCarriesCensusRecordVerdicts) {
  SimCluster cluster(testing::small_cluster_config(2, 8, 1));
  std::vector<NodeCensusRecord> seen;
  cluster.set_gossip_sink(SimDuration{0},
                          [&](ServerId, ServerId, const Gossip& msg) {
                            seen = msg.census;
                          });
  Gossip gossip;
  gossip.census.push_back(census_record(4));
  gossip.census.push_back(census_record(5));
  gossip.census[1].checksum ^= 1;  // a publisher's stamp gone wrong
  cluster.send(ServerId{0}, ServerId{1}, Message(gossip));
  cluster.run_until(cluster.now() + SimDuration{1});

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].crc_ok);
  EXPECT_FALSE(seen[1].crc_ok) << "the receiver must read the verdict the "
                                  "decoder computed from the bytes";
}

TEST(SimWirePath, CountsTheCarriedPayloadAndCensusBytes) {
  SimCluster cluster(testing::small_cluster_config(2, 8, 1));
  cluster.set_gossip_sink(SimDuration{0},
                          [](ServerId, ServerId, const Gossip&) {});
  Gossip gossip;
  gossip.census.push_back(census_record(4));
  wire::Writer w;
  wire::encode_message(w, Message(gossip));
  cluster.send(ServerId{0}, ServerId{1}, Message(gossip));
  cluster.run_until(cluster.now() + SimDuration{1});

  const auto stats = cluster.total_stats();
  EXPECT_EQ(stats.wire_bytes, w.size());  // the payload, sans envelope
  // Everything after the type byte, CRC slot, kind, sequence, target
  // and the empty update vector's count is the census vector.
  EXPECT_EQ(stats.census_bytes, w.size() - 26);
  EXPECT_EQ(stats.census_records, 1u);
}

}  // namespace
}  // namespace clash::sim
