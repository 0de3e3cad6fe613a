#include "storage/snapshot.hpp"

#include <cstdio>

#include "common/crc32.hpp"
#include "repl/log.hpp"
#include "wire/buffer.hpp"
#include "wire/fields.hpp"

namespace clash::storage {

namespace {

constexpr std::uint32_t kMagic = 0x43534E50;  // "CSNP"
// Version 2 dropped version 1's trailing application blob and delta
// list; a version-1 file is rejected like a damaged one.
constexpr std::uint8_t kVersion = 2;

/// [magic u32][version u8][group][head][root u8][parent u64]
template <class IO>
void fields(IO& io, wire::Is<SnapshotHeader> auto& h) {
  std::uint32_t magic = kMagic;
  std::uint8_t version = kVersion;
  io.u32(magic);
  io.u8(version);
  io.check(magic == kMagic && version == kVersion);
  fields(io, h.group);
  fields(io, h.head);
  io.boolean(h.root);
  io.u64(h.parent.value);
}

}  // namespace

// The header, then the objects as LogOps: [u32 n][n put_stream ops]
// [u32 m][m put_query ops]. Recovery replays them through
// GroupLog::apply. A CRC32 of everything before it trails the file.
std::vector<std::uint8_t> encode_snapshot(const SnapshotView& img) {
  wire::Writer w;
  wire::Encoder io{w};
  fields(io, static_cast<const SnapshotHeader&>(img));
  w.u32(std::uint32_t(img.state.streams.size()));
  for (const auto& [_, s] : img.state.streams) wire::write_put(w, s);
  w.u32(std::uint32_t(img.state.queries.size()));
  for (const auto& [_, q] : img.state.queries) wire::write_put(w, q);
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
  wire::Decoder io{r};
  fields(io, static_cast<SnapshotHeader&>(out));
  out.state = GroupState{};
  for (int section = 0; section < 2; ++section) {  // streams, then queries
    const auto n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      repl::LogOp op;
      wire::read(r, op);
      if (r.ok()) repl::GroupLog::apply(op, out.state);
    }
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
