#include "clash/server_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace clash {
namespace {

KeyGroup g(const char* label, unsigned width = 7) {
  return KeyGroup::parse(label, width).value();
}

// Build exactly the table of Figure 2 (server s25): entries
// 011* (root, inactive), 01011* (parent s22, right child s26, inactive),
// 010110* (active), 0110* (parent self, right child s11, inactive),
// 01100* (active).
ServerTable figure2_table() {
  ServerTable t(7);
  const ServerId self{25};
  t.insert({g("011*"), /*root=*/true, ServerId{}, ServerId{45}, false});
  t.insert({g("01011*"), false, ServerId{22}, ServerId{26}, false});
  t.insert({g("010110*"), false, self, ServerId{}, true});
  t.insert({g("0110*"), false, self, ServerId{11}, false});
  t.insert({g("01100*"), false, self, ServerId{}, true});
  return t;
}

TEST(ServerTable, Figure2InvariantsHold) {
  const auto t = figure2_table();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.active_count(), 2u);
  EXPECT_EQ(t.check_invariants(), std::nullopt);
}

// Section 5 case (a)/(b): key 0110001 belongs to the active entry
// 01100* regardless of the client's claimed depth.
TEST(ServerTable, ActiveEntryLookup) {
  auto t = figure2_table();
  const auto* e = t.active_entry_for(Key::parse("0110001").value());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->group.label(), "01100*");
  EXPECT_EQ(e->group.depth(), 5u);
}

// Section 5 case (c): for key 0101010 the longest prefix match across
// the Figure 2 entries is 4 (against the 01011*/010110* entries).
TEST(ServerTable, PaperIncorrectDepthExample) {
  const auto t = figure2_table();
  EXPECT_EQ(t.longest_prefix_match(Key::parse("0101010").value()), 4u);
}

TEST(ServerTable, LongestPrefixVariants) {
  const auto t = figure2_table();
  // Fully matching an active leaf: full depth of that entry.
  EXPECT_EQ(t.longest_prefix_match(Key::parse("0110011").value()), 5u);
  // Key under an inactive lineage entry only.
  EXPECT_EQ(t.longest_prefix_match(Key::parse("0111111").value()), 3u);
  // Nothing matches: 0 bits.
  EXPECT_EQ(t.longest_prefix_match(Key::parse("1000000").value()), 0u);
}

TEST(ServerTable, NoActiveEntryForForeignKey) {
  auto t = figure2_table();
  EXPECT_EQ(t.active_entry_for(Key::parse("0111111").value()), nullptr);
  EXPECT_EQ(t.active_entry_for(Key::parse("0101111").value()), nullptr);
}

TEST(ServerTable, DuplicateInsertThrows) {
  auto t = figure2_table();
  EXPECT_THROW(
      t.insert({g("01100*"), false, ServerId{25}, ServerId{}, true}),
      std::invalid_argument);
}

TEST(ServerTable, WidthMismatchThrows) {
  ServerTable t(7);
  EXPECT_THROW(t.insert({KeyGroup::parse("01*", 8).value(), false,
                         ServerId{1}, ServerId{}, true}),
               std::invalid_argument);
}

TEST(ServerTable, OverlappingActiveGroupsDetected) {
  ServerTable t(7);
  t.insert({g("011*"), false, ServerId{1}, ServerId{}, true});
  t.insert({g("0110*"), false, ServerId{1}, ServerId{}, true});
  const auto err = t.check_invariants();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("overlap"), std::string::npos);
}

TEST(ServerTable, InactiveWithoutChildDetected) {
  ServerTable t(7);
  t.insert({g("011*"), false, ServerId{1}, ServerId{}, false});
  ASSERT_TRUE(t.check_invariants().has_value());
}

TEST(ServerTable, EraseRemovesEntry) {
  auto t = figure2_table();
  t.erase(g("01100*"));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.find(g("01100*")), nullptr);
  EXPECT_EQ(t.active_entry_for(Key::parse("0110001").value()), nullptr);
}

TEST(ServerTable, ActiveEntriesList) {
  const auto t = figure2_table();
  const auto active = t.active_entries();
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0]->group.label(), "010110*");
  EXPECT_EQ(active[1]->group.label(), "01100*");
}

TEST(ServerTable, ToStringRendersFigure2Style) {
  const auto t = figure2_table();
  const auto s = t.to_string();
  EXPECT_NE(s.find("011*"), std::string::npos);
  EXPECT_NE(s.find("-1"), std::string::npos);   // root ParentID
  EXPECT_NE(s.find("s26"), std::string::npos);  // right child id
}

// Property: longest_prefix_match agrees with a brute-force computation
// on random tables (prefix-free active sets plus random lineage).
TEST(ServerTable, LongestPrefixMatchesBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    ServerTable t(10);
    const int entries = 1 + int(rng.below(12));
    for (int i = 0; i < entries; ++i) {
      const unsigned depth = 1 + unsigned(rng.below(10));
      const Key vk = shape(Key(rng.next() & 0x3FF, 10), depth);
      const KeyGroup grp = KeyGroup::of(vk, depth);
      if (t.find(grp) != nullptr) continue;
      // All entries inactive (with fake child) to sidestep the
      // prefix-free requirement: LPM considers every entry anyway.
      t.insert({grp, false, ServerId{0}, ServerId{1}, false});
    }
    for (int probe = 0; probe < 40; ++probe) {
      const Key k(rng.next() & 0x3FF, 10);
      unsigned expect = 0;
      for (const auto* e : t.all_entries()) {
        expect = std::max(expect,
                          std::min(e->group.virtual_key().common_prefix_len(k),
                                   e->group.depth()));
      }
      EXPECT_EQ(t.longest_prefix_match(k), expect);
    }
  }
}

// Property: over random split, merge and handoff sequences, the probe
// by depth finds the same active entry as a linear scan over a model
// of the table kept here, including after the in-place active flips
// that splits and merges make through set_active.
TEST(ServerTable, ActiveLookupMatchesLinearScanUnderChurn) {
  constexpr unsigned kWidth = 12;
  const ServerId self{0};
  const ServerId peer{1};
  Rng rng(77);
  ServerTable t(kWidth);
  std::map<KeyGroup, bool> model;  // group -> active
  t.insert({KeyGroup::root(kWidth), true, ServerId{}, ServerId{}, true});
  model[KeyGroup::root(kWidth)] = true;

  const auto pick = [&](bool active) -> std::optional<KeyGroup> {
    std::vector<KeyGroup> pool;
    for (const auto& [grp, on] : model) {
      if (on == active) pool.push_back(grp);
    }
    if (pool.empty()) return std::nullopt;
    return pool[rng.below(pool.size())];
  };
  const auto scan = [&](const Key& k) -> std::optional<KeyGroup> {
    for (const auto& [grp, on] : model) {
      if (on && grp.contains(k)) return grp;
    }
    return std::nullopt;
  };

  int splits = 0, merges = 0, outs = 0, ins = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 40) {  // split: the parent flips inactive in place
      const auto g = pick(true);
      if (!g || g->depth() >= kWidth || model.count(g->left_child()) ||
          model.count(g->right_child())) {
        continue;
      }
      const bool keep_right = rng.below(2) == 0;
      ServerTableEntry* e = t.find(*g);
      ASSERT_NE(e, nullptr);
      t.set_active(*e, false);
      e->right_child = keep_right ? self : peer;
      model[*g] = false;
      t.insert({g->left_child(), false, self, ServerId{}, true});
      model[g->left_child()] = true;
      if (keep_right) {
        t.insert({g->right_child(), false, self, ServerId{}, true});
        model[g->right_child()] = true;
      }
      ++splits;
    } else if (op < 65) {  // merge: the parent flips active in place
      const auto p = pick(false);
      if (!p) continue;
      const auto left = model.find(p->left_child());
      const auto right = model.find(p->right_child());
      if (left == model.end() || !left->second ||
          (right != model.end() && !right->second)) {
        continue;
      }
      // A group handed in under the parent since the split would
      // overlap the merged parent.
      bool covered = false;
      for (const auto& [grp, on] : model) {
        covered = covered || (on && p->covers(grp) &&
                              grp != p->left_child() &&
                              grp != p->right_child());
      }
      if (covered) continue;
      t.erase(p->left_child());
      model.erase(left);
      if (right != model.end()) {
        t.erase(p->right_child());
        model.erase(right);
      }
      ServerTableEntry* e = t.find(*p);
      ASSERT_NE(e, nullptr);
      t.set_active(*e, true);
      e->right_child = ServerId{};
      model[*p] = true;
      ++merges;
    } else if (op < 80) {  // handoff out
      const auto g = pick(true);
      if (!g) continue;
      t.erase(*g);
      model.erase(*g);
      ++outs;
    } else {  // handoff in, if prefix-free against the actives held
      const KeyGroup g = KeyGroup::of(Key(rng.below(1u << kWidth), kWidth),
                                      unsigned(rng.below(kWidth + 1)));
      bool clash = model.count(g) != 0;
      for (const auto& [grp, on] : model) {
        clash = clash || (on && (grp.covers(g) || g.covers(grp)));
      }
      if (clash) continue;
      t.insert({g, false, peer, ServerId{}, true});
      model[g] = true;
      ++ins;
    }

    ASSERT_EQ(t.check_invariants(), std::nullopt) << "step " << step;
    std::vector<Key> probes;
    for (int i = 0; i < 16; ++i) {
      probes.emplace_back(rng.below(1u << kWidth), kWidth);
    }
    if (const auto g = pick(true)) {
      probes.push_back(g->virtual_key());  // a key known to be held
    }
    const ServerTable& ct = t;
    for (const Key& k : probes) {
      const auto want = scan(k);
      const ServerTableEntry* got = ct.active_entry_for(k);
      ASSERT_EQ(got != nullptr, want.has_value())
          << "step " << step << " key " << k.to_string();
      if (got != nullptr) {
        ASSERT_EQ(got->group, *want) << "step " << step;
        ASSERT_EQ(t.active_entry_for(k), t.find(*want));
      }
    }
    std::vector<KeyGroup> actives;
    for (const ServerTableEntry* e : t.active_entries()) {
      actives.push_back(e->group);
    }
    std::vector<KeyGroup> want_actives;
    for (const auto& [grp, on] : model) {
      if (on) want_actives.push_back(grp);
    }
    ASSERT_EQ(actives, want_actives);  // sorted, as the model is
    ASSERT_EQ(t.active_count(), want_actives.size());
    ASSERT_EQ(t.size(), model.size());
  }
  // Every kind of step ran many times.
  EXPECT_GT(splits, 100);
  EXPECT_GT(merges, 50);
  EXPECT_GT(outs, 50);
  EXPECT_GT(ins, 50);
}

TEST(ServerTable, CopyKeepsItsOwnActiveCounts) {
  auto t = figure2_table();
  ServerTable copy = t;
  t.set_active(*t.find(g("01100*")), false);
  t.find(g("01100*"))->right_child = ServerId{9};
  const Key k = Key::parse("0110001").value();
  EXPECT_EQ(t.active_entry_for(k), nullptr);
  ASSERT_NE(copy.active_entry_for(k), nullptr);
  EXPECT_EQ(copy.active_entry_for(k), copy.find(g("01100*")));
  EXPECT_EQ(copy.check_invariants(), std::nullopt);
  EXPECT_EQ(t.check_invariants(), std::nullopt);
}

TEST(ServerTable, FlipOutsideSetActiveIsReported) {
  auto t = figure2_table();
  t.find(g("01100*"))->active = false;  // bypasses the per-depth count
  t.find(g("01100*"))->right_child = ServerId{9};
  const auto err = t.check_invariants();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("per depth"), std::string::npos);
}

}  // namespace
}  // namespace clash
