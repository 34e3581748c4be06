// Tests for the one collective tree (core/tree.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/tree.hpp"

namespace odcm::core {
namespace {

TEST(KaryTree, ParentsAndChildrenSpanEveryRank) {
  for (std::uint32_t n : {1u, 2u, 4u, 5u, 9u, 17u, 1000u}) {
    for (std::uint32_t root : {0u, n / 2, n - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " root=" + std::to_string(root));
      for (std::uint32_t rank = 0; rank < n; ++rank) {
        const KaryTree tree(n, rank, root);
        EXPECT_EQ(tree.to_rank(tree.to_vrank(rank)), rank);
        EXPECT_EQ(tree.is_root(), rank == root);
        EXPECT_LE(tree.child_count(), kTreeFanout);
        for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
          EXPECT_EQ(KaryTree(n, tree.child(c), root).parent(), rank);
          if (c > 0) {
            EXPECT_LT(tree.to_vrank(tree.child(c - 1)),
                      tree.to_vrank(tree.child(c)));
          }
        }
        if (tree.is_root()) continue;
        const KaryTree parent(n, tree.parent(), root);
        std::uint32_t listed = 0;
        for (std::uint32_t c = 0; c < parent.child_count(); ++c) {
          if (parent.child(c) == rank) ++listed;
        }
        EXPECT_EQ(listed, 1u) << "rank " << rank;
      }

      // Walk down from the root: every rank is reached exactly once.
      std::vector<std::uint32_t> reached(n, 0);
      std::vector<std::uint32_t> frontier = {root};
      while (!frontier.empty()) {
        const std::uint32_t rank = frontier.back();
        frontier.pop_back();
        ++reached[rank];
        const KaryTree tree(n, rank, root);
        for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
          frontier.push_back(tree.child(c));
        }
      }
      EXPECT_EQ(reached, std::vector<std::uint32_t>(n, 1));
    }
  }
}

}  // namespace
}  // namespace odcm::core
