// Unit and property tests of the B+-tree substrate: structural
// invariants under churn, cursor semantics with duplicate keys, and
// differential testing against a sorted reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "skypeer/btree/bplus_tree.h"
#include "skypeer/common/rng.h"

namespace skypeer {
namespace {

TEST(BPlusTree, EmptyTree) {
  BPlusTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 1);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.LowerBound(0.0).Valid());
  EXPECT_FALSE(tree.Contains(1.0, 1));
  EXPECT_FALSE(tree.Erase(1.0, 1));
  tree.CheckInvariants();
}

TEST(BPlusTree, SingleEntry) {
  BPlusTree tree;
  tree.Insert(0.5, 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(0.5, 42));
  EXPECT_FALSE(tree.Contains(0.5, 43));
  EXPECT_FALSE(tree.Contains(0.4, 42));
  BPlusTree::Cursor cursor = tree.Begin();
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), 0.5);
  EXPECT_EQ(cursor.payload(), 42u);
  cursor.Next();
  EXPECT_FALSE(cursor.Valid());
}

TEST(BPlusTree, OrderedIteration) {
  BPlusTree tree(4);
  Rng rng(1);
  std::vector<double> keys;
  for (int i = 0; i < 500; ++i) {
    const double key = rng.Uniform();
    keys.push_back(key);
    tree.Insert(key, i);
  }
  tree.CheckInvariants();
  std::sort(keys.begin(), keys.end());
  size_t index = 0;
  for (BPlusTree::Cursor cursor = tree.Begin(); cursor.Valid();
       cursor.Next()) {
    ASSERT_LT(index, keys.size());
    EXPECT_EQ(cursor.key(), keys[index]);
    ++index;
  }
  EXPECT_EQ(index, keys.size());
}

TEST(BPlusTree, DuplicateKeysAllKept) {
  BPlusTree tree(4);
  for (uint64_t p = 0; p < 50; ++p) {
    tree.Insert(1.0, p);
    tree.Insert(2.0, p);
  }
  EXPECT_EQ(tree.size(), 100u);
  tree.CheckInvariants();
  size_t ones = 0;
  for (BPlusTree::Cursor cursor = tree.LowerBound(1.0);
       cursor.Valid() && cursor.key() == 1.0; cursor.Next()) {
    ++ones;
  }
  EXPECT_EQ(ones, 50u);
  for (uint64_t p = 0; p < 50; ++p) {
    EXPECT_TRUE(tree.Contains(1.0, p));
    EXPECT_TRUE(tree.Contains(2.0, p));
  }
  // Erase each duplicate individually.
  for (uint64_t p = 0; p < 50; ++p) {
    EXPECT_TRUE(tree.Erase(1.0, p));
    EXPECT_FALSE(tree.Contains(1.0, p));
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.size(), 50u);
}

TEST(BPlusTree, LowerBoundSemantics) {
  BPlusTree tree(4);
  for (double key : {0.1, 0.2, 0.2, 0.3, 0.7}) {
    tree.Insert(key, static_cast<uint64_t>(key * 100));
  }
  EXPECT_EQ(tree.LowerBound(0.0).key(), 0.1);
  EXPECT_EQ(tree.LowerBound(0.15).key(), 0.2);
  EXPECT_EQ(tree.LowerBound(0.2).key(), 0.2);
  EXPECT_EQ(tree.LowerBound(0.31).key(), 0.7);
  EXPECT_FALSE(tree.LowerBound(0.71).Valid());
}

TEST(BPlusTree, RangeQuery) {
  BPlusTree tree(4);
  for (int i = 0; i < 100; ++i) {
    tree.Insert(i / 100.0, i);
  }
  std::vector<uint64_t> payloads;
  tree.RangeQuery(0.25, 0.50, &payloads);
  ASSERT_EQ(payloads.size(), 26u);  // Keys 0.25 .. 0.50 inclusive.
  EXPECT_EQ(payloads.front(), 25u);
  EXPECT_EQ(payloads.back(), 50u);
}

TEST(BPlusTree, ClearResets) {
  BPlusTree tree(4);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(i * 0.01, i);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 1);
  tree.CheckInvariants();
  tree.Insert(1.0, 1);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTree, MoveConstruction) {
  BPlusTree tree(4);
  tree.Insert(0.5, 9);
  BPlusTree moved(std::move(tree));
  EXPECT_TRUE(moved.Contains(0.5, 9));
  EXPECT_EQ(moved.size(), 1u);
}

TEST(BPlusTree, GrowsLogarithmically) {
  BPlusTree tree(8);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    tree.Insert(rng.Uniform(), i);
  }
  tree.CheckInvariants();
  EXPECT_GE(tree.height(), 4);
  EXPECT_LE(tree.height(), 8);
}

class BPlusTreeChurnTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {
 protected:
  int max_keys() const { return std::get<0>(GetParam()); }
  int operations() const { return std::get<1>(GetParam()); }
  bool discrete() const { return std::get<2>(GetParam()); }
};

TEST_P(BPlusTreeChurnTest, MatchesReferenceMultimap) {
  BPlusTree tree(max_keys());
  std::multimap<double, uint64_t> reference;
  Rng rng(3000 + max_keys() + operations());
  uint64_t next_payload = 0;
  std::vector<std::pair<double, uint64_t>> live;

  for (int op = 0; op < operations(); ++op) {
    const double action = rng.Uniform();
    if (action < 0.6 || live.empty()) {
      const double key =
          discrete() ? rng.UniformInt(0, 9) / 10.0 : rng.Uniform();
      tree.Insert(key, next_payload);
      reference.emplace(key, next_payload);
      live.push_back({key, next_payload});
      ++next_payload;
    } else {
      const size_t victim = rng.UniformInt(0, live.size() - 1);
      const auto [key, payload] = live[victim];
      EXPECT_TRUE(tree.Erase(key, payload));
      for (auto it = reference.lower_bound(key); it != reference.end();
           ++it) {
        if (it->second == payload) {
          reference.erase(it);
          break;
        }
      }
      live.erase(live.begin() + victim);
    }
    EXPECT_EQ(tree.size(), reference.size());
    if (op % 64 == 0) {
      tree.CheckInvariants();
      // Full ordered scan agrees with the reference.
      auto it = reference.begin();
      for (BPlusTree::Cursor cursor = tree.Begin(); cursor.Valid();
           cursor.Next(), ++it) {
        ASSERT_TRUE(it != reference.end());
        EXPECT_EQ(cursor.key(), it->first);
      }
      EXPECT_TRUE(it == reference.end());
    }
  }
  tree.CheckInvariants();

  // Drain completely.
  for (const auto& [key, payload] : live) {
    EXPECT_TRUE(tree.Erase(key, payload));
  }
  EXPECT_TRUE(tree.empty());
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeChurnTest,
    ::testing::Combine(::testing::Values(4, 6, 32),
                       ::testing::Values(300, 2000),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "_ops";
      name += std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_discrete" : "_cont";
      return name;
    });

}  // namespace
}  // namespace skypeer
