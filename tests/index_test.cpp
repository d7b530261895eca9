#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "index/r_tree.hpp"
#include "util/rng.hpp"

namespace fast::index {
namespace {

// ---------- RTree ----------

TEST(RTree, RectGeometry) {
  const Rect r{0, 0, 10, 5};
  EXPECT_EQ(r.area(), 50.0);
  EXPECT_TRUE(r.contains_point(5, 2));
  EXPECT_FALSE(r.contains_point(11, 2));
  EXPECT_TRUE(r.intersects(Rect{9, 4, 20, 20}));
  EXPECT_FALSE(r.intersects(Rect{11, 6, 20, 20}));
  EXPECT_EQ(r.min_dist_sq(5, 2), 0.0);
  EXPECT_EQ(r.min_dist_sq(13, 9), 9.0 + 16.0);
}

TEST(RTree, RectExpansion) {
  const Rect a{0, 0, 1, 1};
  const Rect b{2, 2, 3, 3};
  const Rect e = a.expanded(b);
  EXPECT_EQ(e.min_x, 0);
  EXPECT_EQ(e.max_x, 3);
  EXPECT_EQ(a.enlargement(b), 9.0 - 1.0);
}

TEST(RTree, InsertAndRangeSmall) {
  RTree tree(4);
  tree.insert(1, 1, 1);
  tree.insert(2, 5, 5);
  tree.insert(3, 9, 9);
  const auto hits = tree.range(Rect{0, 0, 6, 6});
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RTree, RangeMatchesBruteForceAfterSplits) {
  util::Rng rng(6);
  RTree tree(6);
  std::vector<std::pair<double, double>> points;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 100);
    const double y = rng.uniform(0, 100);
    tree.insert(i, x, y);
    points.emplace_back(x, y);
  }
  EXPECT_EQ(tree.size(), 500u);
  for (int q = 0; q < 25; ++q) {
    const double x0 = rng.uniform(0, 80), y0 = rng.uniform(0, 80);
    const Rect query{x0, y0, x0 + 20, y0 + 20};
    auto hits = tree.range(query);
    std::sort(hits.begin(), hits.end());
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      if (query.contains_point(points[i].first, points[i].second)) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(hits, expected) << "query " << q;
  }
}

TEST(RTree, NearestMatchesBruteForce) {
  util::Rng rng(8);
  RTree tree(8);
  std::vector<std::pair<double, double>> points;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const double x = rng.uniform(0, 100);
    const double y = rng.uniform(0, 100);
    tree.insert(i, x, y);
    points.emplace_back(x, y);
  }
  for (int q = 0; q < 20; ++q) {
    const double qx = rng.uniform(0, 100), qy = rng.uniform(0, 100);
    const auto knn = tree.nearest(qx, qy, 5);
    ASSERT_EQ(knn.size(), 5u);
    // Brute force.
    std::vector<std::pair<double, std::uint64_t>> bf;
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      const double dx = points[i].first - qx, dy = points[i].second - qy;
      bf.emplace_back(std::sqrt(dx * dx + dy * dy), i);
    }
    std::sort(bf.begin(), bf.end());
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(knn[i].distance, bf[i].first, 1e-9) << "rank " << i;
    }
  }
}

TEST(RTree, NearestOrdered) {
  RTree tree(4);
  for (std::uint64_t i = 0; i < 50; ++i) {
    tree.insert(i, static_cast<double>(i), 0);
  }
  const auto knn = tree.nearest(25.2, 0, 4);
  ASSERT_EQ(knn.size(), 4u);
  for (std::size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].distance, knn[i - 1].distance);
  }
  EXPECT_EQ(knn[0].id, 25u);
}

TEST(RTree, HeightGrowsLogarithmically) {
  RTree tree(8);
  util::Rng rng(10);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tree.insert(i, rng.uniform(0, 1000), rng.uniform(0, 1000));
  }
  // 1000 points with fan-out >= 4 must fit in height <= 6.
  EXPECT_LE(tree.height(), 6u);
  EXPECT_GE(tree.height(), 2u);
}

TEST(RTree, AccessCountReported) {
  RTree tree(4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    tree.insert(i, static_cast<double>(i % 10), static_cast<double>(i / 10));
  }
  std::size_t accesses = 0;
  tree.range(Rect{0, 0, 2, 2}, &accesses);
  EXPECT_GT(accesses, 0u);
  EXPECT_LT(accesses, tree.node_count() + 1);
}

}  // namespace
}  // namespace fast::index
