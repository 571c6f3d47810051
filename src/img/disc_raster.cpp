#include "img/disc_raster.hpp"

#include <algorithm>

namespace mcmcpar::img {

std::size_t discPixelCount(double cx, double cy, double r, int width,
                           int height) noexcept {
  std::size_t count = 0;
  forEachDiscSpan(cx, cy, r, width, height, [&count](int, int x0, int x1) {
    count += static_cast<std::size_t>(x1 - x0);
  });
  return count;
}

void renderSoftDisc(ImageF& image, double cx, double cy, double r, float peak,
                    double softness) {
  if (r <= 0.0) return;
  const double rOut = r + std::max(softness, 0.0);
  const int yLo = std::max(0, static_cast<int>(std::floor(cy - rOut - 0.5)));
  const int yHi = std::min(image.height() - 1,
                           static_cast<int>(std::ceil(cy + rOut - 0.5)));
  const int xLo = std::max(0, static_cast<int>(std::floor(cx - rOut - 0.5)));
  const int xHi = std::min(image.width() - 1,
                           static_cast<int>(std::ceil(cx + rOut - 0.5)));
  for (int y = yLo; y <= yHi; ++y) {
    float* row = image.row(y);
    const double dy = (static_cast<double>(y) + 0.5) - cy;
    for (int x = xLo; x <= xHi; ++x) {
      const double dx = (static_cast<double>(x) + 0.5) - cx;
      const double d = std::sqrt(dx * dx + dy * dy);
      float weight = 0.0f;
      if (d <= r) {
        weight = 1.0f;
      } else if (d < rOut && softness > 0.0) {
        weight = static_cast<float>(1.0 - (d - r) / softness);
      }
      if (weight > 0.0f) {
        row[x] = std::min(1.0f, row[x] + peak * weight);
      }
    }
  }
}

}  // namespace mcmcpar::img
