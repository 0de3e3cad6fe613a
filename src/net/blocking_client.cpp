#include "net/blocking_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.hpp"
#include "net/connection.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

/// Blocking read of exactly `n` bytes with a deadline.
bool read_exact(int fd, std::uint8_t* out, std::size_t n,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::size_t got = 0;
  while (got < n) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, int(remaining.count()));
    if (pr <= 0) {
      if (pr < 0 && errno == EINTR) continue;
      return false;
    }
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r <= 0) {
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    got += std::size_t(r);
  }
  return true;
}

bool write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    sent += std::size_t(w);
  }
  return true;
}

}  // namespace

BlockingClient::BlockingClient(Config config)
    : config_(std::move(config)),
      ring_(dht::ChordRing::Config{config_.hash_bits,
                                   config_.virtual_servers,
                                   config_.hash_algo, config_.ring_salt}) {
  for (const auto& [id, _] : config_.members) ring_.add_server(id);
  if (!config_.access_point.valid() && !config_.members.empty()) {
    config_.access_point = config_.members.begin()->first;
  }
}

BlockingClient::~BlockingClient() = default;

dht::LookupResult BlockingClient::dht_lookup(dht::HashKey h) {
  return ring_.lookup(h, config_.access_point);
}

Expected<Fd*> BlockingClient::connection_to(ServerId to) {
  const auto it = connections_.find(to);
  if (it != connections_.end() && it->second.valid()) return &it->second;
  const auto member = config_.members.find(to);
  if (member == config_.members.end()) {
    return Error::not_found("unknown server " + to_string(to));
  }
  auto fd = connect_tcp(member->second);
  if (!fd.ok()) return fd.error();
  auto [slot, _] = connections_.insert_or_assign(to, std::move(fd).value());
  return &slot->second;
}

Expected<std::vector<std::uint8_t>> BlockingClient::call(
    ServerId to, std::span<const std::uint8_t> wire_frame) {
  // `wire_frame` is a finished frame (u32 LE length prefix included),
  // written as-is — no re-framing copy.
  if (wire_frame.size() <= 4 ||
      wire_frame.size() - 4 > Connection::kMaxFrame) {
    return Error::invalid("frame size out of bounds");
  }
  auto conn = connection_to(to);
  if (!conn.ok()) return conn.error();
  const int fd = conn.value()->get();

  if (!write_all(fd, wire_frame)) {
    connections_.erase(to);
    return Error{Error::Code::kClosed, "write failed"};
  }

  std::uint8_t len_buf[4];
  if (!read_exact(fd, len_buf, 4, config_.timeout)) {
    connections_.erase(to);
    return Error{Error::Code::kTimeout, "response header timeout"};
  }
  const std::uint32_t resp_len = wire::load_u32_le(len_buf);
  if (resp_len > Connection::kMaxFrame) {
    connections_.erase(to);
    return Error::protocol("oversized response frame");
  }
  std::vector<std::uint8_t> response(resp_len);
  if (!read_exact(fd, response.data(), resp_len, config_.timeout)) {
    connections_.erase(to);
    return Error{Error::Code::kTimeout, "response body timeout"};
  }
  return response;
}

AcceptObjectReply BlockingClient::rpc_accept_object(ServerId to,
                                                    const AcceptObject& msg) {
  auto w = wire::begin_frame(wire::Envelope{
      wire::FrameKind::kRequest, next_request_id_++, ServerId{}});
  wire::encode_message(w, Message(msg));
  const auto frame = wire::finish_frame(std::move(w));

  const auto response = call(to, frame);
  if (!response.ok()) {
    // Surface transport failure as "wrong everything": the depth search
    // widens back to the full range and retries elsewhere.
    ++transport_errors_;
    CLASH_DEBUG << "rpc to " << to_string(to)
                << " failed: " << response.error().message;
    return IncorrectDepth{0};
  }
  const auto decoded = wire::decode_frame(response.value());
  if (!decoded.ok()) {
    ++transport_errors_;
    return IncorrectDepth{0};
  }
  const auto reply = wire::decode_reply(decoded.value().payload);
  if (!reply.ok()) {
    ++transport_errors_;
    return IncorrectDepth{0};
  }
  return reply.value();
}

}  // namespace clash::net
