#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "img/image.hpp"
#include "img/synth.hpp"

namespace mcmcpar::engine {
class StrategyRegistry;
struct ManifestEntry;
}  // namespace mcmcpar::engine

namespace mcmcpar::stream {

/// Register the "sequence" strategy: a wrapper that runs the ordered frames
/// of engine::Problem::frames (just `filtered` when the list is empty)
/// through one inner registry strategy. Frame K runs under seed
/// engine::deriveJobSeed(seed, K), so one (seed, frames) pair is one
/// reproducible unit whatever the inner strategy. With warm starts on,
/// frame K starts from frame K-1's final circles (Problem::warmStart);
/// inner strategies that ignore warm starts (mc3, blind, intelligent,
/// sharded) run every frame cold. A Tracker gives objects stable ids
/// across frames. After each frame the strategy sends one progress beat
/// with phase "frame" (done = K+1, total = frame count); the inner
/// strategy's own beats are not forwarded. The report carries the last
/// frame's circles and logPosterior, the summed iterations, and a
/// StreamReport in `extras`. Called by StrategyRegistry::builtin(); also
/// usable to extend a custom registry.
///
/// Options (all `key=value`):
///   strategy=NAME    inner per-frame strategy (default serial; "sequence"
///                    itself is rejected — no nested sequences)
///   inner.K=V        forwarded to the inner strategy as K=V
///   warm-start=0|1   seed frame K from frame K-1's circles (default 1)
///   track=0|1        run the cross-frame Tracker (default 1)
void registerSequenceStrategy(engine::StrategyRegistry& registry);

/// Most frames one sequence may name, whatever the source: a frame count,
/// a glob, or inline uploads.
inline constexpr std::uint64_t kMaxFrames = 4096;

/// Throws engine::EngineError when a sequence names more than kMaxFrames
/// frames. `sequence` is the value as written, for the message.
void requireFrameLimit(std::uint64_t count, const std::string& sequence);

/// One resolved frame: the image, shared so a server can pin cache entries
/// for the lifetime of a job, and its display label.
struct FrameImage {
  std::shared_ptr<const img::ImageF> image;
  std::string label;
};

/// Reads one on-disk frame (an image cache lookup, or img::readPgm).
using FrameLoader =
    std::function<std::shared_ptr<const img::ImageF>(const std::string& path)>;

/// Resolve a `@sequence=` / `--sequence` value into its frames. A decimal
/// count N generates N drifting frames of `synth` (labels "synth.<k>") and
/// is an error when `synth` is null. Any other value is a glob whose sorted
/// matches are read through `load` (labels are the paths). Either source
/// is held to kMaxFrames before any frame is generated or read. Throws
/// engine::EngineError; `load` may throw its own errors.
[[nodiscard]] std::vector<FrameImage> resolveFrames(
    const std::string& sequence, const img::SceneSpec* synth,
    const FrameLoader& load);

/// The frames of one job line whose pixels are not inline uploads: its
/// @sequence through resolveFrames (a frame count drifts `synth` when the
/// image token is "synth"), otherwise the one frame `load(entry.image)`.
/// Throws engine::EngineError for an `@image=inline` entry — uploads exist
/// only on a socket connection, whose front-end resolves them itself.
[[nodiscard]] std::vector<FrameImage> resolveJobFrames(
    const engine::ManifestEntry& entry, const img::SceneSpec& synth,
    const FrameLoader& load);

/// Parse the `@sequence=N` form: a pure decimal frame count >= 1. Returns
/// nullopt for anything else (which is then treated as a glob pattern).
[[nodiscard]] std::optional<std::uint64_t> parseFrameCount(
    const std::string& value);

/// Expand a `@sequence=<glob>` pattern into sorted matching paths.
/// Wildcards (`*`, `?`, `[...]`) are honoured in the filename component
/// only; a pattern without wildcards is returned as-is. A missing
/// directory yields an empty list.
[[nodiscard]] std::vector<std::string> expandFrameGlob(
    const std::string& pattern);

}  // namespace mcmcpar::stream
