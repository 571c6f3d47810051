#pragma once

// Disc generators shared by the likelihood suites: proposals that reach the
// corner cases of img::discRowSpan's geometry.

#include <algorithm>
#include <cmath>

#include "model/circle.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model::testcases {

/// A proposal for one applied circle: small moves, far jumps (often clipped
/// by the border), sub-pixel radii whose every row takes discRowSpan's rim
/// verification, knife-edge discs with pixel centres exactly on the rim,
/// and degenerate radii. A disc of radius <= 0 enumerates no rows, yet
/// discRowSpan still gives it a cut (r = 0 on a pixel centre cuts that
/// pixel, r < 0 cuts the disc of radius |r|), so cutting by it exercises
/// the rows outside the other disc's row range.
inline Circle proposeFrom(const Circle& c, int gx0, int gy0, int w, int h,
                          rng::Stream& s, bool degenerate) {
  switch (s.below(degenerate ? 6 : 4)) {
    case 4:
      return {std::floor(c.x) + 0.5, std::floor(c.y) + 0.5, 0.0};
    case 5:
      return {c.x + s.normal(0.0, 1.5), c.y + s.normal(0.0, 1.5), -c.r};
    case 0:
      return {c.x + s.normal(0.0, 1.5), c.y + s.normal(0.0, 1.5),
              std::max(0.3, c.r + s.normal(0.0, 0.6))};
    case 1:
      return {s.uniform(gx0 - 12.0, gx0 + w + 12.0),
              s.uniform(gy0 - 12.0, gy0 + h + 12.0), s.uniform(1.0, 14.0)};
    case 2:
      return {c.x + s.uniform(-2.0, 2.0), c.y + s.uniform(-2.0, 2.0),
              s.uniform(0.05, 1.2)};
    default:
      return {std::floor(c.x) + 0.5, std::floor(c.y) + 0.5,
              static_cast<double>(1 + s.below(9))};
  }
}

}  // namespace mcmcpar::model::testcases
