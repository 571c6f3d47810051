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
///   tiles=KxL|auto   tile grid (default 2x2); auto sizes it per image
///   max-tiles=N      tile cap for tiles=auto (default: from the workers)
///   min-tile-size=N  smallest tile side for tiles=auto (default 32)
///   halo=N           overlap margin in pixels (default 16)
///   hedge-factor=X   socket backend straggler hedging (default 0 = off)
///   backend=local|socket          (default local)
///   endpoints=host:port[*weight][,...]   socket backend fleet. Each tile
///                    is one job line (docs/ARCHITECTURE.md "Socket-backend
///                    fidelity"): its crop travels as a float32 UPLOAD
///                    frame and it runs on the weighted least-loaded
///                    endpoint that answered PING; a tile whose endpoint
///                    dies mid-run is requeued onto a surviving host
///   endpoints-file=PATH   fleet from a file (one `host:port [weight]` per
///                    line, `#` comments), merged after endpoints=
///   strategy=NAME    inner per-tile strategy (default serial; "sharded"
///                    itself is rejected — no recursive sharding)
///   inner.K=V        forwarded to the inner strategy as K=V
///   tile-iters=N     per-tile budget override (default: the run budget
///                    split across tiles by predicted workload)
///   min-tile-iters=N floor of the workload split (default 2000)
///   iou=X            stitcher duplicate threshold (default 0.3)
///   timeout=X        socket read timeout per reply, seconds (default 600)
void registerShardedStrategy(engine::StrategyRegistry& registry);

}  // namespace mcmcpar::shard
