#pragma once

#include <vector>

#include "model/circle.hpp"

namespace mcmcpar::model {

/// Uniform bucket grid over the image domain, indexing circles by centre.
///
/// Supports the neighbour queries the prior's overlap term and the
/// merge/split moves need: "all circles whose centre lies within distance d
/// of a point". Cell size should be >= the largest query distance so a query
/// touches at most a 3x3 block of cells.
///
/// Concurrency contract (relied on by the in-place periodic executor): a
/// mutation touches only the bucket(s) containing the old and new centre.
/// Partition legality guarantees concurrent phases mutate disjoint buckets;
/// see docs/ARCHITECTURE.md, "Periodic in-place execution and the legality
/// margin".
class SpatialGrid {
 public:
  SpatialGrid() = default;

  /// Grid over [0, width) x [0, height) with the given cell size (>= 1).
  SpatialGrid(double width, double height, double cellSize);

  /// Insert a circle centre under the given id.
  void insert(CircleId id, const Circle& c);

  /// Remove an id previously inserted with centre c. Precondition: present.
  void remove(CircleId id, const Circle& c);

  /// Move id from centre `from` to centre `to`.
  void relocate(CircleId id, const Circle& from, const Circle& to);

  /// Invoke fn(id) for every id whose stored centre may lie within `dist`
  /// of (x, y) — candidates, not exact matches; callers re-check distance.
  template <typename Fn>
  void forEachCandidate(double x, double y, double dist, Fn&& fn) const {
    const int cx0 = cellIndexX(x - dist);
    const int cx1 = cellIndexX(x + dist);
    const int cy0 = cellIndexY(y - dist);
    const int cy1 = cellIndexY(y + dist);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (CircleId id : cells_[bucketIndex(cx, cy)]) fn(id);
      }
    }
  }

  [[nodiscard]] double cellSize() const noexcept { return cellSize_; }
  [[nodiscard]] int cellsX() const noexcept { return cellsX_; }
  [[nodiscard]] int cellsY() const noexcept { return cellsY_; }

  /// Total number of stored ids (O(cells); for tests).
  [[nodiscard]] std::size_t size() const noexcept;

 private:
  [[nodiscard]] int cellIndexX(double x) const noexcept;
  [[nodiscard]] int cellIndexY(double y) const noexcept;
  [[nodiscard]] std::size_t bucketIndex(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * cellsX_ + cx;
  }
  [[nodiscard]] std::size_t bucketFor(const Circle& c) const noexcept {
    return bucketIndex(cellIndexX(c.x), cellIndexY(c.y));
  }

  double cellSize_ = 1.0;
  int cellsX_ = 0;
  int cellsY_ = 0;
  std::vector<std::vector<CircleId>> cells_;
};

}  // namespace mcmcpar::model
