#include "mcmc/mc3.hpp"

#include <cassert>
#include <cmath>

namespace mcmcpar::mcmc {

bool temperedStep(model::ModelState& state, const MoveRegistry& registry,
                  double beta, rng::Stream& stream, Diagnostics* diagnostics) {
  const Move& move = registry.sampleAny(stream);
  PendingMove pending = move.propose(state, {}, stream);
  if (pending.valid()) {
    // Temper only the posterior part; proposal ratios and Jacobians belong
    // to the transition kernel, not to the target density.
    const double remainder = pending.logAlpha - pending.logPosteriorDelta;
    pending.logAlpha = beta * pending.logPosteriorDelta + remainder;
  }
  const bool accepted = acceptAndCommit(state, pending, stream);
  if (diagnostics != nullptr) diagnostics->record(move.name(), accepted);
  return accepted;
}

struct Mc3Sampler::Impl {
  const MoveRegistry& registry;
  Mc3Params params;
  std::vector<std::unique_ptr<model::ModelState>> chains;
  std::vector<rng::Stream> streams;
  std::vector<double> betas;
  Diagnostics coldDiagnostics;
  Mc3Stats stats;
  rng::Stream swapStream;
  par::ThreadPool* pool;
  std::uint64_t nextTrace = 0;

  Impl(const img::ImageF& filtered, const model::PriorParams& prior,
       const model::LikelihoodParams& likelihood, const MoveRegistry& reg,
       const Mc3Params& p, std::size_t initialCircles, std::uint64_t seed,
       par::ThreadPool* tp)
      : registry(reg),
        params(p),
        swapStream(rng::Stream(seed).derive(0xABBA)),
        pool(tp) {
    params.chains = std::max(params.chains, 1u);
    // A zero interval would make run()'s step = min(0, remaining) spin.
    params.swapInterval = std::max<std::uint64_t>(params.swapInterval, 1);
    const rng::Stream root(seed);
    for (unsigned k = 0; k < params.chains; ++k) {
      chains.push_back(
          std::make_unique<model::ModelState>(filtered, prior, likelihood));
      streams.push_back(root.derive(k + 1));
      chains.back()->initialiseRandom(initialCircles, streams.back());
      betas.push_back(1.0 / (1.0 + k * params.heatStep));
    }
  }

  void stepInterval(std::uint64_t iters) {
    const auto body = [&](std::size_t k) {
      Diagnostics* diag = k == 0 ? &coldDiagnostics : nullptr;
      for (std::uint64_t i = 0; i < iters; ++i) {
        temperedStep(*chains[k], registry, betas[k], streams[k], diag);
      }
    };
    par::forEachIndex(chains.size() > 1 ? pool : nullptr, chains.size(), body);
  }

  void trySwap() {
    if (chains.size() < 2) return;
    // Adjacent-pair swaps mix best under incremental heating.
    const std::size_t i =
        static_cast<std::size_t>(swapStream.below(chains.size() - 1));
    const std::size_t j = i + 1;
    ++stats.swapProposed;
    const double logPi = chains[i]->logPosterior();
    const double logPj = chains[j]->logPosterior();
    const double logAlpha = (betas[i] - betas[j]) * (logPj - logPi);
    bool accept = logAlpha >= 0.0;
    if (!accept) {
      const double u = swapStream.uniform();
      accept = u > 0.0 && std::log(u) < logAlpha;
    }
    if (accept) {
      std::swap(chains[i], chains[j]);
      std::swap(streams[i], streams[j]);  // streams travel with the state
      ++stats.swapAccepted;
    }
  }

  std::uint64_t run(std::uint64_t iterations, std::uint64_t traceInterval,
                    const RunHooks& hooks) {
    std::uint64_t done = 0;
    while (done < iterations) {
      if (hooks.cancelled()) break;
      const std::uint64_t step =
          std::min<std::uint64_t>(params.swapInterval, iterations - done);
      stepInterval(step);
      done += step;
      stats.iterationsPerChain += step;
      trySwap();
      if (traceInterval != 0 && done >= nextTrace) {
        coldDiagnostics.tracePoint(stats.iterationsPerChain,
                                   chains[0]->logPosterior(),
                                   chains[0]->config().size());
        hooks.trace(coldDiagnostics.trace().back());
        nextTrace += traceInterval;
      }
      hooks.progress(done, iterations, "mc3");
    }
    return done;
  }
};

Mc3Sampler::Mc3Sampler(const img::ImageF& filtered,
                       const model::PriorParams& prior,
                       const model::LikelihoodParams& likelihood,
                       const MoveRegistry& registry, const Mc3Params& params,
                       std::size_t initialCircles, std::uint64_t seed,
                       par::ThreadPool* pool)
    : impl_(std::make_unique<Impl>(filtered, prior, likelihood, registry,
                                   params, initialCircles, seed, pool)) {}

Mc3Sampler::~Mc3Sampler() = default;

std::uint64_t Mc3Sampler::run(std::uint64_t iterations,
                              std::uint64_t traceInterval,
                              const RunHooks& hooks) {
  return impl_->run(iterations, traceInterval, hooks);
}

const model::ModelState& Mc3Sampler::coldChain() const {
  return *impl_->chains.front();
}
model::ModelState& Mc3Sampler::coldChain() { return *impl_->chains.front(); }

const Mc3Stats& Mc3Sampler::stats() const noexcept { return impl_->stats; }

const Diagnostics& Mc3Sampler::coldDiagnostics() const {
  return impl_->coldDiagnostics;
}

unsigned Mc3Sampler::chainCount() const noexcept {
  return static_cast<unsigned>(impl_->chains.size());
}

double Mc3Sampler::beta(unsigned k) const noexcept { return impl_->betas[k]; }

}  // namespace mcmcpar::mcmc
