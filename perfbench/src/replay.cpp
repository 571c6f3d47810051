#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "mcmc/diagnostics.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/sampler.hpp"
#include "model/posterior.hpp"
#include "partition/prior_estimation.hpp"
#include "rng/stream.hpp"

namespace perfbench {

namespace mm = mcmcpar;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kCheckpoints = 8;
constexpr int kProbesPerCheckpoint = 32;
constexpr std::uint64_t kSpanEvery = 512;  ///< iterations kept as spans

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The serial strategy's prepare + state seeding (engine/strategies.cpp):
/// eq. 5 count estimate, then llround(expected) random circles from the
/// job stream, which the chain then keeps drawing from.
struct ChainSetup {
  mm::model::PriorParams prior;
  mm::mcmc::MoveRegistry registry;

  explicit ChainSetup(const mm::engine::Problem& problem)
      : prior(problem.prior),
        registry(mm::mcmc::MoveRegistry::caseStudy(problem.moves)) {
    if (problem.estimateCount) {
      prior.expectedCount = std::max(
          mm::partition::estimateCount(*problem.filtered, problem.theta,
                                       prior.radiusMean)
              .expectedCount,
          0.5);
    }
  }

  [[nodiscard]] mm::model::ModelState build(const mm::engine::Problem& problem,
                                            mm::rng::Stream& stream) const {
    mm::model::ModelState state(*problem.filtered, prior, problem.likelihood);
    state.initialiseRandom(
        static_cast<std::size_t>(std::llround(prior.expectedCount)), stream);
    return state;
  }
};

mm::model::Circle drawFromPrior(const mm::model::ModelState& state,
                                mm::rng::Stream& stream) {
  const mm::model::PriorParams& p = state.prior().params();
  const double r = std::clamp(stream.normal(p.radiusMean, p.radiusStd),
                              p.radiusMin, p.radiusMax);
  const mm::model::Bounds b = state.bounds();
  return mm::model::Circle{stream.uniform(b.x0 + r, b.x1 - r),
                           stream.uniform(b.y0 + r, b.y1 - r), r};
}

/// Read-only model-layer probes against the live chain state.
struct ModelProbe {
  std::vector<double> add, del, replace, merge, split;
  double sink = 0.0;  ///< keeps the delta results observable

  void run(const mm::model::ModelState& state, mm::rng::Stream& stream,
           SpanLog& spans, std::uint64_t job, std::int64_t parent) {
    const std::vector<mm::model::CircleId>& ids = state.config().aliveIds();
    if (ids.size() < 2) return;
    const auto pick = [&] { return ids[stream.below(ids.size())]; };
    const auto timed = [&](std::vector<double>& into, const char* name,
                           auto&& call) {
      const double spanStart = spans.now();
      for (int k = 0; k < kProbesPerCheckpoint; ++k) {
        const auto t0 = Clock::now();
        sink += call();
        const auto t1 = Clock::now();
        into.push_back(micros(t0, t1));
      }
      spans.record(name, "model", job, parent, spanStart, spans.now());
    };
    timed(add, "model.delta_add", [&] {
      return state.deltaAdd(drawFromPrior(state, stream));
    });
    timed(del, "model.delta_delete", [&] { return state.deltaDelete(pick()); });
    timed(replace, "model.delta_replace", [&] {
      return state.deltaReplace(pick(), drawFromPrior(state, stream));
    });
    timed(merge, "model.delta_merge", [&] {
      const mm::model::CircleId a = pick();
      mm::model::CircleId b = pick();
      while (b == a) b = pick();
      const mm::model::Circle& ca = state.config().get(a);
      const mm::model::Circle& cb = state.config().get(b);
      const mm::model::PriorParams& p = state.prior().params();
      const mm::model::Circle m{
          0.5 * (ca.x + cb.x), 0.5 * (ca.y + cb.y),
          std::clamp(std::hypot(ca.r, cb.r), p.radiusMin, p.radiusMax)};
      return state.discInDomain(m) ? state.deltaMerge(a, b, m) : 0.0;
    });
    timed(split, "model.delta_split", [&] {
      const mm::model::CircleId id = pick();
      const mm::model::Circle& c = state.config().get(id);
      const mm::model::PriorParams& p = state.prior().params();
      const double r = std::clamp(c.r / std::sqrt(2.0), p.radiusMin, p.radiusMax);
      const mm::model::Circle c1{c.x - 0.5 * c.r, c.y, r};
      const mm::model::Circle c2{c.x + 0.5 * c.r, c.y, r};
      return state.discInDomain(c1) && state.discInDomain(c2)
                 ? state.deltaSplit(id, c1, c2)
                 : 0.0;
    });
  }
};

struct MoveTally {
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  double proposeUs = 0.0;
  double commitUs = 0.0;
};

}  // namespace

ReplayOutcome replaySerial(const mm::engine::Problem& problem,
                           std::uint64_t seed, std::uint64_t iterations,
                           const mm::engine::RunReport* engineSerial,
                           SpanLog& spans, std::uint64_t job,
                           WorkloadResult& result) {
  const ChainSetup setup(problem);

  // Reference: the library's own sampler from the same seed.
  mm::rng::Stream referenceStream(seed);
  mm::model::ModelState referenceState = setup.build(problem, referenceStream);
  mm::mcmc::Sampler sampler(referenceState, setup.registry, referenceStream);
  (void)sampler.run(iterations);

  ScopedSpan replaySpan(spans, "mcmc.replay", "mcmc", job);
  mm::rng::Stream stream(seed);
  const auto buildStart = Clock::now();
  mm::model::ModelState state = setup.build(problem, stream);
  const double firstBuildMs = micros(buildStart, Clock::now()) / 1e3;

  const mm::mcmc::MoveRegistry& registry = setup.registry;
  std::vector<MoveTally> moves(registry.size());
  mm::mcmc::Diagnostics diagnostics;
  double selectUs = 0.0;
  double recordUs = 0.0;
  double iterUs = 0.0;

  ModelProbe probe;
  mm::rng::Stream probeStream(mixSeed(seed, 0x9E0B));
  std::vector<double> resyncMs;
  std::vector<double> buildMs{firstBuildMs};
  const mm::mcmc::SelectionContext unconstrained{};

  for (std::uint64_t i = 0; i < iterations; ++i) {
    if (i > 0 && i % std::max<std::uint64_t>(1, iterations / kCheckpoints) == 0) {
      probe.run(state, probeStream, spans, job, replaySpan.id());
      // Constructor and resynchronise timed on a scratch state, so the
      // replayed chain itself is never touched outside the sampler calls.
      ScopedSpan buildSpan(spans, "model.state_build", "model", job, replaySpan.id());
      mm::rng::Stream scratchStream(mixSeed(seed, i));
      const auto t0 = Clock::now();
      mm::model::ModelState scratch = setup.build(problem, scratchStream);
      const auto t1 = Clock::now();
      scratch.resynchronise();
      const auto t2 = Clock::now();
      buildMs.push_back(micros(t0, t1) / 1e3);
      resyncMs.push_back(micros(t1, t2) / 1e3);
    }
    const auto t0 = Clock::now();
    const mm::mcmc::Move& move = registry.sampleAny(stream);
    const auto t1 = Clock::now();
    const mm::mcmc::PendingMove pending = move.propose(state, unconstrained, stream);
    const auto t2 = Clock::now();
    const bool accepted = mm::mcmc::acceptAndCommit(state, pending, stream);
    const auto t3 = Clock::now();
    diagnostics.record(move.name(), accepted);
    const auto t4 = Clock::now();

    std::size_t index = 0;
    while (&registry.at(index) != &move) ++index;
    MoveTally& tally = moves[index];
    ++tally.proposed;
    tally.accepted += accepted ? 1 : 0;
    tally.proposeUs += micros(t1, t2);
    tally.commitUs += micros(t2, t3);
    selectUs += micros(t0, t1);
    recordUs += micros(t3, t4);
    iterUs += micros(t0, t4);

    if (i % kSpanEvery == 0 && spans.enabled()) {
      const std::int64_t it = spans.record("mcmc.iteration", "mcmc", job,
                                           replaySpan.id(), spans.at(t0), spans.at(t4));
      spans.record("mcmc.select", "mcmc", job, it, spans.at(t0), spans.at(t1));
      spans.record("mcmc.propose", "mcmc", job, it, spans.at(t1), spans.at(t2));
      spans.record("mcmc.commit", "mcmc", job, it, spans.at(t2), spans.at(t3));
      spans.record("mcmc.record", "mcmc", job, it, spans.at(t3), spans.at(t4));
    }
  }

  const double n = static_cast<double>(std::max<std::uint64_t>(1, iterations));
  result.layer("mcmc.iter_us", iterUs / n, "us");
  result.layer("mcmc.select_us", selectUs / n, "us");
  result.layer("mcmc.record_us", recordUs / n, "us");
  for (std::size_t k = 0; k < registry.size(); ++k) {
    const MoveTally& t = moves[k];
    const std::string name = registry.at(k).name();
    const double count = static_cast<double>(std::max<std::uint64_t>(1, t.proposed));
    result.layer("mcmc.propose_us." + name, t.proposeUs / count, "us");
    result.layer("mcmc.commit_us." + name, t.commitUs / count, "us");
    result.layer("mcmc.accept_ratio." + name,
                 static_cast<double>(t.accepted) / count, "ratio");
  }
  result.layer("model.delta_add_us", median(probe.add), "us");
  result.layer("model.delta_delete_us", median(probe.del), "us");
  result.layer("model.delta_replace_us", median(probe.replace), "us");
  result.layer("model.delta_merge_us", median(probe.merge), "us");
  result.layer("model.delta_split_us", median(probe.split), "us");
  result.layer("model.resync_ms", median(resyncMs), "ms");
  result.layer("model.state_build_ms", median(buildMs), "ms");

  ReplayOutcome outcome;
  const std::vector<mm::model::Circle> circles = state.config().snapshot();
  if (state.logPosterior() != referenceState.logPosterior() ||
      circles != referenceState.config().snapshot()) {
    outcome.detail = "replay diverged from mcmc::Sampler::run";
  } else if (engineSerial != nullptr &&
             (engineSerial->logPosterior != state.logPosterior() ||
              engineSerial->circles != circles)) {
    outcome.detail = "replay diverged from the engine serial job";
  } else if (diagnostics.totalProposed() != iterations) {
    outcome.detail = "replay recorded the wrong number of proposals";
  } else {
    outcome.identical = true;
  }
  return outcome;
}

}  // namespace perfbench
