// A small open-addressed hash map for id-keyed object sets: the
// per-group stream and query maps every put upserts into
// (clash::GroupState). Entries live inline in one slot array, so a hit
// costs one cache miss, where a node-based std::unordered_map costs two
// dependent ones plus a prime modulo.
//
// Power-of-two capacity (at least 4), load at most 3/4, linear probing,
// backward-shift erase (no tombstones). The slot of a key is the top
// log2(capacity) bits of Hash()(key), so Hash must put its entropy in
// the high bits; the default multiplies std::hash by 2^64 / phi.
//
// Unlike std::unordered_map, an insert may rehash and an erase may move
// other entries: either one invalidates every iterator, pointer and
// reference into the map. Iteration order is unspecified.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace clash {

/// std::hash<K> spread into the high bits (Fibonacci hashing).
template <class K>
struct FlatHash {
  std::size_t operator()(const K& k) const noexcept {
    return std::hash<K>{}(k) * std::size_t{0x9E3779B97F4A7C15};
  }
};

template <class K, class V, class Hash = FlatHash<K>>
class FlatMap {
  using Slot = std::optional<std::pair<const K, V>>;

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<const K, V>;
  using size_type = std::size_t;

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    // iterator -> const_iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& o) : cur_(o.cur_), end_(o.end_) {}  // NOLINT

    reference operator*() const { return **cur_; }
    pointer operator->() const { return &**cur_; }
    Iter& operator++() {
      ++cur_;
      skip_empty();
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.cur_ == b.cur_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.cur_ != b.cur_;
    }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;

    Iter(SlotPtr cur, SlotPtr end) : cur_(cur), end_(end) { skip_empty(); }
    void skip_empty() {
      while (cur_ != end_ && !cur_->has_value()) ++cur_;
    }

    SlotPtr cur_ = nullptr;
    SlotPtr end_ = nullptr;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap(FlatMap&& o) noexcept { swap(o); }
  // Slots hold a const key, so assignment rebuilds rather than assigns
  // element-wise.
  FlatMap& operator=(const FlatMap& o) {
    if (this != &o) *this = FlatMap(o);
    return *this;
  }
  FlatMap& operator=(FlatMap&& o) noexcept {
    FlatMap(std::move(o)).swap(*this);
    return *this;
  }

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_type capacity() const { return slots_.size(); }

  iterator begin() { return {slots_.data(), slots_.data() + slots_.size()}; }
  iterator end() {
    Slot* e = slots_.data() + slots_.size();
    return {e, e};
  }
  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    const Slot* e = slots_.data() + slots_.size();
    return {e, e};
  }

  iterator find(const K& k) {
    const size_type i = locate(k);
    return i == kNone ? end() : at_slot(i);
  }
  const_iterator find(const K& k) const {
    const size_type i = locate(k);
    if (i == kNone) return end();
    const Slot* e = slots_.data() + slots_.size();
    return {slots_.data() + i, e};
  }
  [[nodiscard]] size_type count(const K& k) const {
    return locate(k) == kNone ? 0 : 1;
  }

  const V& at(const K& k) const {
    const size_type i = locate(k);
    if (i == kNone) throw std::out_of_range("FlatMap::at");
    return slots_[i]->second;
  }

  /// Inserts (k, V(args...)) unless `k` is present; returns the entry
  /// and whether it was inserted.
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& k, Args&&... args) {
    size_type i = 0;
    if (!slots_.empty()) {
      i = probe(k);
      if (slots_[i].has_value()) return {at_slot(i), false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
      i = probe(k);
    }
    slots_[i].emplace(std::piecewise_construct, std::forward_as_tuple(k),
                      std::forward_as_tuple(std::forward<Args>(args)...));
    ++size_;
    return {at_slot(i), true};
  }

  V& operator[](const K& k) { return try_emplace(k).first->second; }

  /// Removes the entry `it` points at. Later entries of its probe run
  /// may shift into the hole, so no iterator survives (hence no return
  /// value); a loop that filters a map builds a new one instead.
  void erase(const_iterator it) {
    erase_slot(size_type(it.cur_ - slots_.data()));
  }
  size_type erase(const K& k) {
    const size_type i = locate(k);
    if (i == kNone) return 0;
    erase_slot(i);
    return 1;
  }

  void swap(FlatMap& o) noexcept {
    slots_.swap(o.slots_);
    std::swap(size_, o.size_);
    std::swap(shift_, o.shift_);
  }

 private:
  static constexpr size_type kMinCapacity = 4;
  static constexpr size_type kNone = ~size_type{0};

  [[nodiscard]] size_type home(const K& k) const {
    return size_type(std::uint64_t(Hash{}(k)) >> shift_);
  }

  iterator at_slot(size_type i) {
    return {slots_.data() + i, slots_.data() + slots_.size()};
  }

  /// The slot holding `k`, or the empty slot that ends its probe run
  /// (the load cap guarantees one). Requires a non-empty slot array.
  [[nodiscard]] size_type probe(const K& k) const {
    const size_type mask = slots_.size() - 1;
    size_type i = home(k);
    while (slots_[i].has_value() && !(slots_[i]->first == k)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  [[nodiscard]] size_type locate(const K& k) const {
    if (size_ == 0) return kNone;
    const size_type i = probe(k);
    return slots_[i].has_value() ? i : kNone;
  }

  void erase_slot(size_type hole) {
    const size_type mask = slots_.size() - 1;
    slots_[hole].reset();
    --size_;
    // Backward shift: move each later entry of the run into the hole
    // when its home is cyclically at or before the hole. An entry whose
    // home lies past the hole stays put; moved, it would be unreachable.
    for (size_type j = (hole + 1) & mask; slots_[j].has_value();
         j = (j + 1) & mask) {
      const size_type h = home(slots_[j]->first);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        slots_[hole].emplace(std::move(*slots_[j]));
        slots_[j].reset();
        hole = j;
      }
    }
  }

  void rehash(size_type cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    shift_ = 64 - unsigned(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.has_value()) slots_[probe(s->first)].emplace(std::move(*s));
    }
  }

  std::vector<Slot> slots_;
  size_type size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity); nothing probes at 0 slots
};

}  // namespace clash
