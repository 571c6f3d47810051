#pragma once

// Inputs of the `served` workload, built only from the workload seed: the
// open-loop arrival schedule and every image the generator uploads.

#include <cstdint>
#include <string>
#include <vector>

#include "img/image.hpp"
#include "img/synth.hpp"

namespace perfbench::served {

enum class Kind {
  LightCached,    ///< re-upload of a hot image the cache already holds
  LightSynth,     ///< the server's own "synth" image
  LightFresh,     ///< upload of a fresh image (cache miss)
  HeavySerial,    ///< 384x384 serial job
  HeavySequence,  ///< @sequence=4 synth job (the stream layer)
};

[[nodiscard]] const char* className(Kind kind) noexcept;  ///< "light"/"heavy"
[[nodiscard]] const char* kindName(Kind kind) noexcept;

struct Request {
  double at = 0.0;         ///< scheduled send time, seconds from start
  Kind kind = Kind::LightSynth;
  std::size_t image = 0;   ///< index into the kind's image pool
  std::uint64_t seed = 1;  ///< the job's @seed
};

/// Evenly spaced arrivals with seeded jitter at the workload's fixed rate
/// covering `seconds`, extended to at least `minRequests`, with kinds drawn
/// from the fixed mix.
[[nodiscard]] std::vector<Request> makeSchedule(std::uint64_t seed, double seconds,
                                                std::size_t minRequests);

struct Inputs {
  std::vector<mcmcpar::img::Scene> hot;    ///< the cache-resident set
  std::vector<mcmcpar::img::Scene> fresh;  ///< the cache-missing pool
  mcmcpar::img::Scene heavy;               ///< the 384x384 heavy image
  std::vector<mcmcpar::img::ImageU8> hotU8, freshU8;
  mcmcpar::img::ImageU8 heavyU8;
};

[[nodiscard]] Inputs makeInputs(std::uint64_t seed);

}  // namespace perfbench::served
