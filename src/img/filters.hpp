#pragma once

#include "img/image.hpp"

namespace mcmcpar::img {

/// Binary threshold: output 1.0f where intensity > theta, else 0.0f.
/// This is the filter of eq. (5) in the paper (theta = 0.5 in §IX).
[[nodiscard]] ImageF threshold(const ImageF& image, float theta);

/// Count of pixels strictly above theta (the numerator of eq. 5).
[[nodiscard]] std::size_t countAboveThreshold(const ImageF& image, float theta) noexcept;

/// Count of pixels above theta inside the rectangle [x0,x0+w) x [y0,y0+h).
[[nodiscard]] std::size_t countAboveThreshold(const ImageF& image, float theta,
                                              int x0, int y0, int w, int h) noexcept;

/// Channel weights for the stain-emphasis filter. The paper "filters the
/// input image to emphasise the colour of interest"; for haematoxylin-like
/// stains the red channel is suppressed and blue emphasised.
struct StainWeights {
  float r = -0.2f;
  float g = -0.2f;
  float b = 1.4f;
  float bias = 0.0f;
};

/// Project an RGB image onto a scalar "stain intensity" raster in [0, 1]
/// using a per-channel linear combination followed by clamping.
[[nodiscard]] ImageF stainEmphasis(const ImageRgb& image, const StainWeights& weights = {});

/// Per-column "any pixel above theta" occupancy (length = width).
/// Used by the intelligent partitioner to find empty columns.
[[nodiscard]] std::vector<bool> columnOccupancy(const ImageF& image, float theta);

/// Per-row "any pixel above theta" occupancy (length = height).
[[nodiscard]] std::vector<bool> rowOccupancy(const ImageF& image, float theta);

}  // namespace mcmcpar::img
