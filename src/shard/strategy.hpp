#pragma once

namespace mcmcpar::engine {
class StrategyRegistry;
}  // namespace mcmcpar::engine

namespace mcmcpar::shard {

/// Register the "sharded" strategy — the sharding coordinator that splits
/// one image into overlapping tiles, fans them out as independent jobs
/// (locally through engine::BatchRunner or remotely through serve::Client)
/// and stitches the per-tile results back into one RunReport carrying a
/// ShardReport. Problem::warmStart is ignored: every tile starts cold, so
/// each frame of a `sequence(strategy=sharded)` run is a plain sharded
/// run. Called by StrategyRegistry::builtin(); also usable to extend a
/// custom registry.
///
/// Options (all `key=value`):
///   tiles=KxL        tile grid (default 2x2)
///   halo=N           overlap margin in pixels (default 16)
///   backend=local|socket          (default local)
///   endpoints=host:port[*weight][,...]   socket backend fleet. Tiles are
///                    placed weighted-least-loaded on endpoints that
///                    answered the startup PING check; a tile whose
///                    endpoint dies mid-run is requeued onto a surviving
///                    host (safe: the Stitcher is deterministic). Tile
///                    crops travel as float32 binary frames (UPLOAD) and
///                    the full radius prior + fixed count are forwarded
///                    exactly, so no filesystem is shared and remote tiles
///                    reproduce local-backend tiles bit-for-bit; custom
///                    likelihood/moves/theta stay local-backend-only
///                    (docs/ARCHITECTURE.md "Socket-backend fidelity")
///   endpoints-file=PATH   fleet from a file (one `host:port [weight]` per
///                    line, `#` comments), merged after endpoints=
///   ping-timeout=X   health-probe PING timeout, seconds (default 5)
///   ping-interval=X  min seconds between re-probes of an endpoint
///                    (default 30)
///   strategy=NAME    inner per-tile strategy (default serial; "sharded"
///                    itself is rejected — no recursive sharding)
///   inner.K=V        forwarded to the inner strategy as K=V
///   tile-iters=N     per-tile budget override (default: the run budget
///                    split across tiles proportional to core area)
///   min-tile-iters=N floor of the proportional split (default 2000)
///   iou=X            stitcher duplicate threshold (default 0.3)
///   timeout=X        socket read timeout per reply, seconds (default 600)
void registerShardedStrategy(engine::StrategyRegistry& registry);

}  // namespace mcmcpar::shard
