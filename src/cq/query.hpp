// Continuous queries over streaming data — the application substrate
// the paper's evaluation simulates (NiagaraCQ/Xfilter-style filtering,
// Mobiscope-style spatial queries). A query subscribes to a key-space
// region (a prefix — e.g. a quad-tree cell) plus optional attribute
// predicates evaluated on each matching data record. The query object
// itself is clash::QueryInfo (clash/objects.hpp), stored by the key
// group that manages its key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "keys/key.hpp"

namespace clash::cq {

/// A single attribute predicate: `attr <op> value`.
struct Predicate {
  enum class Op : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

  std::uint32_t attr = 0;
  Op op = Op::kEq;
  std::int64_t value = 0;

  [[nodiscard]] bool eval(std::int64_t x) const;
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Predicate&, const Predicate&) = default;
};

/// A data record flowing through the system: its identifier key (which
/// routes it) plus attribute values predicates can inspect.
struct Record {
  Key key{0, 24};
  std::vector<std::int64_t> attrs;

  [[nodiscard]] std::optional<std::int64_t> attr(std::uint32_t id) const {
    return id < attrs.size() ? std::optional(attrs[id]) : std::nullopt;
  }
};

}  // namespace clash::cq
