// Tests for the process-grid decompositions the application kernels share.
#include <gtest/gtest.h>

#include "apps/common.hpp"

namespace odcm::apps {
namespace {

TEST(Grid, NeighborWrapIsTorus) {
  // 12 PEs: a 3 x 4 grid. Rank 0 is the (0, 0) corner; stepping off any
  // edge lands on the opposite edge, and the far corner wraps back to 0.
  Grid2D g2 = Grid2D::decompose(0, 12);
  ASSERT_EQ(g2.px, 3u);
  ASSERT_EQ(g2.py, 4u);
  EXPECT_EQ(g2.neighbor_wrap(1, 0), 1u);
  EXPECT_EQ(g2.neighbor_wrap(-1, 0), 2u);
  EXPECT_EQ(g2.neighbor_wrap(0, -1), 9u);
  EXPECT_EQ(g2.neighbor_wrap(-1, -1), 11u);
  EXPECT_EQ(Grid2D::decompose(11, 12).neighbor_wrap(1, 1), 0u);

  // 24 PEs: a 3 x 4 x 2 grid, same corners in three dimensions.
  Grid3D g3 = Grid3D::decompose(0, 24);
  ASSERT_EQ(g3.px, 3u);
  ASSERT_EQ(g3.py, 4u);
  ASSERT_EQ(g3.pz, 2u);
  EXPECT_EQ(g3.neighbor_wrap(1, 0, 0), 1u);
  EXPECT_EQ(g3.neighbor_wrap(-1, 0, 0), 2u);
  EXPECT_EQ(g3.neighbor_wrap(0, -1, 0), 9u);
  EXPECT_EQ(g3.neighbor_wrap(0, 0, -1), 12u);
  EXPECT_EQ(g3.neighbor_wrap(-1, -1, -1), 23u);
  EXPECT_EQ(Grid3D::decompose(23, 24).neighbor_wrap(1, 1, 1), 0u);

  // A prime PE count leaves 1-wide axes: a step along one wraps onto the
  // PE itself, while the long axis still wraps around.
  Grid2D line2 = Grid2D::decompose(6, 7);
  ASSERT_EQ(line2.px, 1u);
  EXPECT_EQ(line2.neighbor_wrap(1, 0), 6u);
  EXPECT_EQ(line2.neighbor_wrap(-1, 0), 6u);
  EXPECT_EQ(line2.neighbor_wrap(0, 1), 0u);
  Grid3D line3 = Grid3D::decompose(4, 5);
  ASSERT_EQ(line3.px, 1u);
  ASSERT_EQ(line3.py, 1u);
  EXPECT_EQ(line3.neighbor_wrap(1, 0, 0), 4u);
  EXPECT_EQ(line3.neighbor_wrap(0, -1, 0), 4u);
  EXPECT_EQ(line3.neighbor_wrap(0, 0, 1), 0u);
  EXPECT_EQ(line3.neighbor_wrap(0, 0, -1), 3u);
}

}  // namespace
}  // namespace odcm::apps
