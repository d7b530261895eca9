#include <set>

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/vecmath.hpp"
#include "workload/dataset.hpp"
#include "workload/metadata.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_generator.hpp"

namespace fast::workload {
namespace {

// ---------- DatasetSpec ----------

TEST(DatasetSpec, PaperShapes) {
  const DatasetSpec wuhan = DatasetSpec::wuhan(100);
  const DatasetSpec shanghai = DatasetSpec::shanghai(100);
  EXPECT_EQ(wuhan.landmarks, 16u);     // Table II
  EXPECT_EQ(shanghai.landmarks, 22u);  // Table II
  EXPECT_GT(shanghai.mean_file_mb, wuhan.mean_file_mb);
  EXPECT_NE(wuhan.seed, shanghai.seed);
}

// ---------- SceneGenerator ----------

TEST(SceneGenerator, CanonicalViewDeterministic) {
  DatasetSpec spec = DatasetSpec::wuhan(10);
  spec.image_size = 48;
  SceneGenerator gen(spec);
  const img::Image a = gen.canonical_view(3, 1);
  const img::Image b = gen.canonical_view(3, 1);
  ASSERT_EQ(a.pixel_count(), b.pixel_count());
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    EXPECT_EQ(a.pixels()[i], b.pixels()[i]);
  }
}

TEST(SceneGenerator, DifferentLandmarksDiffer) {
  DatasetSpec spec = DatasetSpec::wuhan(10);
  spec.image_size = 48;
  SceneGenerator gen(spec);
  const img::Image a = gen.canonical_view(0, 0);
  const img::Image b = gen.canonical_view(1, 0);
  double diff = 0;
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    diff += std::abs(a.pixels()[i] - b.pixels()[i]);
  }
  EXPECT_GT(diff / a.pixel_count(), 0.02);
}

TEST(SceneGenerator, ViewsOfSameLandmarkAreDistinctWarps) {
  DatasetSpec spec = DatasetSpec::wuhan(10);
  spec.image_size = 48;
  SceneGenerator gen(spec);
  const img::Image v0 = gen.canonical_view(2, 0);
  const img::Image v1 = gen.canonical_view(2, 1);
  const img::Image v2 = gen.canonical_view(2, 2);
  auto l1 = [&](const img::Image& x, const img::Image& y) {
    double d = 0;
    for (std::size_t i = 0; i < x.pixel_count(); ++i) {
      d += std::abs(x.pixels()[i] - y.pixels()[i]);
    }
    return d;
  };
  // Each viewpoint is a distinct, non-degenerate warp of view 0. (Pixel
  // L1 distance does not separate landmarks — descriptors do; the
  // integration tests cover that.)
  EXPECT_GT(l1(v0, v1), 0.0);
  EXPECT_GT(l1(v0, v2), 0.0);
  EXPECT_GT(l1(v1, v2), 0.0);
}

TEST(SceneGenerator, PortraitVariantsDiffer) {
  DatasetSpec spec = DatasetSpec::wuhan(10);
  spec.image_size = 48;
  SceneGenerator gen(spec);
  const img::Image p0 = gen.child_portrait(0);
  const img::Image p1 = gen.child_portrait(1);
  double diff = 0;
  for (std::size_t i = 0; i < p0.pixel_count(); ++i) {
    diff += std::abs(p0.pixels()[i] - p1.pixels()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(SceneGenerator, GenerateProducesSpecCount) {
  const Dataset ds = test::small_dataset(25);
  EXPECT_EQ(ds.photos.size(), 25u);
  EXPECT_EQ(ds.landmark_geo.size(), ds.spec.landmarks);
  for (const auto& p : ds.photos) {
    EXPECT_LT(p.landmark, ds.spec.landmarks);
    EXPECT_LT(p.view, ds.spec.views_per_landmark);
    EXPECT_GT(p.file_bytes, 0u);
    EXPECT_EQ(p.image.width(), ds.spec.image_size);
  }
}

TEST(SceneGenerator, DeterministicDataset) {
  const Dataset a = test::small_dataset(10, 42);
  const Dataset b = test::small_dataset(10, 42);
  for (std::size_t i = 0; i < a.photos.size(); ++i) {
    EXPECT_EQ(a.photos[i].landmark, b.photos[i].landmark);
    EXPECT_EQ(a.photos[i].contains_child, b.photos[i].contains_child);
    EXPECT_EQ(a.photos[i].file_bytes, b.photos[i].file_bytes);
  }
}

TEST(SceneGenerator, GeoTagsNearLandmark) {
  const Dataset ds = test::small_dataset(40);
  for (const auto& p : ds.photos) {
    const auto [gx, gy] = ds.landmark_geo[p.landmark];
    EXPECT_NEAR(p.geo_x, gx, 5.0);
    EXPECT_NEAR(p.geo_y, gy, 5.0);
  }
}

TEST(Dataset, ChildPhotoIdsMatchFlags) {
  DatasetSpec spec = DatasetSpec::wuhan(60);
  spec.image_size = 64;
  spec.child_presence_prob = 0.3;
  const Dataset ds = SceneGenerator(spec).generate();
  const auto ids = ds.child_photo_ids();
  EXPECT_GT(ids.size(), 5u);
  std::set<std::uint64_t> idset(ids.begin(), ids.end());
  for (const auto& p : ds.photos) {
    EXPECT_EQ(p.contains_child, idset.count(p.id) > 0);
  }
}

TEST(Dataset, ClusterIdsConsistent) {
  const Dataset ds = test::small_dataset(50);
  const auto ids = ds.cluster_ids(ds.photos[0].landmark, ds.photos[0].view);
  EXPECT_FALSE(ids.empty());
  for (std::uint64_t id : ids) {
    EXPECT_EQ(ds.photos[id].landmark, ds.photos[0].landmark);
    EXPECT_EQ(ds.photos[id].view, ds.photos[0].view);
  }
}

TEST(Dataset, TotalBytesSumsFiles) {
  const Dataset ds = test::small_dataset(10);
  std::size_t sum = 0;
  for (const auto& p : ds.photos) sum += p.file_bytes;
  EXPECT_EQ(ds.total_file_bytes(), sum);
}

// ---------- Query generation ----------

TEST(QueryGen, ChildQueriesCarryGroundTruth) {
  DatasetSpec spec = DatasetSpec::wuhan(40);
  spec.image_size = 64;
  spec.child_presence_prob = 0.25;
  const Dataset ds = SceneGenerator(spec).generate();
  const QuerySet qs = make_child_queries(ds, 5);
  EXPECT_EQ(qs.portraits.size(), 5u);
  EXPECT_EQ(qs.relevant, ds.child_photo_ids());
}

TEST(QueryGen, DupQueriesReferenceRealPhotos) {
  const Dataset ds = test::small_dataset(30);
  const auto queries = make_dup_queries(ds, 10);
  EXPECT_EQ(queries.size(), 10u);
  for (const auto& q : queries) {
    EXPECT_LT(q.source, ds.photos.size());
    EXPECT_EQ(ds.photos[q.source].landmark, q.landmark);
    // The source photo is always in its own relevant cluster.
    bool found = false;
    for (std::uint64_t id : q.relevant) {
      if (id == q.source) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(QueryGen, DupQueriesDeterministicInSeed) {
  const Dataset ds = test::small_dataset(30);
  const auto a = make_dup_queries(ds, 5, 99);
  const auto b = make_dup_queries(ds, 5, 99);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
  }
}

// ---------- Metadata vectors ----------

TEST(Metadata, VectorDimensionStable) {
  FileMeta meta;
  meta.name = "report_1.log";
  meta.extension = "log";
  meta.size_bytes = 4096;
  const MetaVectorConfig cfg;
  const auto v = metadata_vector(meta, cfg);
  EXPECT_EQ(v.size(), 6 + cfg.name_dims);
}

TEST(Metadata, SimilarFilesCloserThanDissimilar) {
  FileMeta a, b, c;
  a.name = "frame_001.jpg";
  a.extension = "jpg";
  a.size_bytes = 1 << 20;
  a.ctime_s = 1000;
  a.mtime_s = 1100;
  a.owner = 2;
  a.depth = 3;
  b = a;
  b.name = "frame_002.jpg";
  b.ctime_s = 1050;
  c.name = "core_dump.bin";
  c.extension = "bin";
  c.size_bytes = 1 << 30;
  c.ctime_s = 9e6;
  c.mtime_s = 9.1e6;
  c.owner = 7;
  c.depth = 9;
  const auto va = metadata_vector(a);
  const auto vb = metadata_vector(b);
  const auto vc = metadata_vector(c);
  EXPECT_LT(util::l2_distance(va, vb), util::l2_distance(va, vc));
}

TEST(Metadata, NamespaceGeneratorClusters) {
  const auto files = generate_namespace(200, 5, 3);
  EXPECT_EQ(files.size(), 200u);
  std::set<std::string> extensions;
  for (const auto& f : files) {
    EXPECT_FALSE(f.name.empty());
    EXPECT_GT(f.mtime_s, f.ctime_s);
    extensions.insert(f.extension);
  }
  // 5 clusters -> at most 5 distinct extensions (clusters share them).
  EXPECT_LE(extensions.size(), 5u);
}

}  // namespace
}  // namespace fast::workload
