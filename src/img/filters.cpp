#include "img/filters.hpp"

#include <algorithm>

namespace mcmcpar::img {

ImageF threshold(const ImageF& image, float theta) {
  ImageF out(image.width(), image.height());
  for (std::size_t i = 0; i < image.pixelCount(); ++i) {
    out.pixels()[i] = image.pixels()[i] > theta ? 1.0f : 0.0f;
  }
  return out;
}

std::size_t countAboveThreshold(const ImageF& image, float theta) noexcept {
  std::size_t n = 0;
  for (float v : image.pixels()) n += (v > theta);
  return n;
}

std::size_t countAboveThreshold(const ImageF& image, float theta, int x0,
                                int y0, int w, int h) noexcept {
  std::size_t n = 0;
  const int x1 = std::min(x0 + w, image.width());
  const int y1 = std::min(y0 + h, image.height());
  for (int y = std::max(y0, 0); y < y1; ++y) {
    const float* r = image.row(y);
    for (int x = std::max(x0, 0); x < x1; ++x) n += (r[x] > theta);
  }
  return n;
}

ImageF stainEmphasis(const ImageRgb& image, const StainWeights& weights) {
  ImageF out(image.width(), image.height());
  constexpr float kInv255 = 1.0f / 255.0f;
  for (std::size_t i = 0; i < image.pixelCount(); ++i) {
    const Rgb px = image.pixels()[i];
    const float v = weights.bias +
                    weights.r * static_cast<float>(px.r) * kInv255 +
                    weights.g * static_cast<float>(px.g) * kInv255 +
                    weights.b * static_cast<float>(px.b) * kInv255;
    out.pixels()[i] = std::clamp(v, 0.0f, 1.0f);
  }
  return out;
}

std::vector<bool> columnOccupancy(const ImageF& image, float theta) {
  std::vector<bool> occ(static_cast<std::size_t>(image.width()), false);
  for (int y = 0; y < image.height(); ++y) {
    const float* r = image.row(y);
    for (int x = 0; x < image.width(); ++x) {
      if (r[x] > theta) occ[static_cast<std::size_t>(x)] = true;
    }
  }
  return occ;
}

std::vector<bool> rowOccupancy(const ImageF& image, float theta) {
  std::vector<bool> occ(static_cast<std::size_t>(image.height()), false);
  for (int y = 0; y < image.height(); ++y) {
    const float* r = image.row(y);
    bool any = false;
    for (int x = 0; x < image.width(); ++x) any = any || (r[x] > theta);
    occ[static_cast<std::size_t>(y)] = any;
  }
  return occ;
}

}  // namespace mcmcpar::img
