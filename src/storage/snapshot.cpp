#include "storage/snapshot.hpp"

#include <cstdio>

#include "common/crc32.hpp"
#include "repl/log.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::storage {

namespace {

constexpr std::uint32_t kMagic = 0x43534E50;  // "CSNP"
// Version 2 dropped version 1's trailing application blob and delta
// list; a version-1 file is rejected like a damaged one.
constexpr std::uint8_t kVersion = 2;

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const SnapshotView& img) {
  wire::Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  wire::encode_group(w, img.group);
  w.u64(img.head.epoch);
  w.u64(img.head.seq);
  w.boolean(img.root);
  w.u64(img.parent.value);
  w.u32(std::uint32_t(img.state.streams.size()));
  for (const auto& [_, s] : img.state.streams) wire::encode_put_stream(w, s);
  w.u32(std::uint32_t(img.state.queries.size()));
  for (const auto& [_, q] : img.state.queries) wire::encode_put_query(w, q);
  w.u32(crc32(w.data()));
  return w.take();
}

bool decode_snapshot(std::span<const std::uint8_t> data, SnapshotImage& out) {
  if (data.size() < 4) return false;
  const auto body = data.first(data.size() - 4);
  if (crc32(body) != wire::load_u32_le(data.data() + body.size())) {
    return false;
  }
  wire::Reader r(body);
  if (r.u32() != kMagic || r.u8() != kVersion) return false;
  out.group = wire::decode_group(r);
  out.head.epoch = r.u64();
  out.head.seq = r.u64();
  out.root = r.boolean();
  out.parent = ServerId{r.u64()};
  out.state = GroupState{};
  const auto n_streams = r.u32();
  for (std::uint32_t i = 0; i < n_streams && r.ok(); ++i) {
    repl::GroupLog::apply(wire::decode_log_op(r), out.state);
  }
  const auto n_queries = r.u32();
  for (std::uint32_t i = 0; i < n_queries && r.ok(); ++i) {
    repl::GroupLog::apply(wire::decode_log_op(r), out.state);
  }
  return r.exhausted();
}

std::string snapshot_path(const std::string& dir, const KeyGroup& group) {
  char name[64];
  std::snprintf(name, sizeof(name), "%u-%llx.snap", group.depth(),
                (unsigned long long)group.virtual_key().value());
  return dir + "/" + name;
}

}  // namespace clash::storage
