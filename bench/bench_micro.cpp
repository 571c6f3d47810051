// MICRO — google-benchmark microbenchmarks of the substrates the paper's
// per-iteration cost model (tauG, tauL) is made of: incremental likelihood
// deltas, spatial-grid neighbour queries, RNG throughput and disc
// rasterising.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "img/disc_raster.hpp"
#include "img/synth.hpp"
#include "mcmc/sampler.hpp"
#include "model/likelihood_kernels.hpp"
#include "model/posterior.hpp"
#include "obs/metrics.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

using namespace mcmcpar;

namespace {

model::PriorParams microPrior() {
  model::PriorParams p;
  p.expectedCount = 60.0;
  p.radiusMean = 10.0;
  p.radiusStd = 1.2;
  p.radiusMin = 4.0;
  p.radiusMax = 18.0;
  return p;
}

model::ModelState microState(int size, int circles, std::uint64_t seed) {
  static std::map<std::tuple<int, int, std::uint64_t>, img::Scene> cache;
  auto key = std::make_tuple(size, circles, seed);
  if (!cache.count(key)) {
    cache[key] =
        img::generateScene(img::cellScene(size, size, circles, 10.0, seed));
  }
  model::ModelState state(cache[key].image, microPrior(),
                          model::LikelihoodParams{});
  rng::Stream s(seed + 1);
  state.initialiseRandom(static_cast<std::size_t>(circles), s);
  return state;
}

void BM_XoshiroThroughput(benchmark::State& state) {
  rng::Stream s(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.bits());
  }
}
BENCHMARK(BM_XoshiroThroughput);

void BM_NormalDraw(benchmark::State& state) {
  rng::Stream s(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.normal());
  }
}
BENCHMARK(BM_NormalDraw);

void BM_AliasTableSample(benchmark::State& state) {
  const rng::AliasTable table({0.08, 0.08, 0.08, 0.08, 0.08, 0.3, 0.3});
  rng::Stream s(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(s));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_DiscIteration(benchmark::State& state) {
  const double r = static_cast<double>(state.range(0));
  double sum = 0.0;
  for (auto _ : state) {
    img::forEachDiscPixel(64.5, 64.5, r, 128, 128,
                          [&](int x, int y) { sum += x + y; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(3.14159 * r * r));
}
BENCHMARK(BM_DiscIteration)->Arg(5)->Arg(10)->Arg(20);

// --- CI regression gate pairs ----------------------------------------------
// Each *PerPixel512 benchmark reproduces the pre-span hot path (per-pixel
// callback, one branch and one serial accumulate per pixel); the matching
// *Span512 benchmark runs today's row-span kernel on the identical 512x512
// workload. tools/check_bench_micro.py gates CI on the in-run speedup ratio
// of each pair, which is machine-independent, instead of absolute times.

struct GateWorkload {
  img::ImageF gain{512, 512};
  img::Image<std::uint16_t> cov{512, 512, 0};
  std::vector<model::Circle> probes;
};

const GateWorkload& gateWorkload() {
  static const GateWorkload w = [] {
    GateWorkload out;
    rng::Stream s(29);
    for (float& v : out.gain.pixels()) {
      v = static_cast<float>(s.uniform(-4.0, 4.0));
    }
    // Half the raster pre-covered so the cov==0 branch is exercised both ways.
    for (int i = 0; i < 40; ++i) {
      img::forEachDiscSpan(s.uniform(0, 512), s.uniform(0, 512),
                           s.uniform(15, 40), 512, 512,
                           [&](int y, int x0, int x1) {
                             std::uint16_t* row = out.cov.row(y);
                             for (int x = x0; x < x1; ++x) ++row[x];
                           });
    }
    for (int i = 0; i < 64; ++i) {
      out.probes.push_back(model::Circle{s.uniform(20, 492),
                                         s.uniform(20, 492), 32.0});
    }
    return out;
  }();
  return w;
}

std::int64_t gateDiscPixels(const GateWorkload& w) {
  std::int64_t pixels = 0;
  for (const model::Circle& c : w.probes) {
    pixels += static_cast<std::int64_t>(
        img::discPixelCount(c.x, c.y, c.r, 512, 512));
  }
  return pixels;
}

void BM_GainAccumPerPixel512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscPixel(c.x, c.y, c.r, 512, 512, [&](int x, int y) {
        sum += w.cov(x, y) == 0 ? static_cast<double>(w.gain(x, y)) : 0.0;
      });
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumPerPixel512);

void BM_GainAccumSpan512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscSpan(c.x, c.y, c.r, 512, 512,
                           [&](int y, int x0, int x1) {
                             sum += model::kernels::spanDeltaAdd(
                                 w.gain.row(y) + x0, w.cov.row(y) + x0,
                                 static_cast<std::size_t>(x1 - x0));
                           });
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumSpan512);

// Instrumented twin of BM_GainAccumSpan512: the identical kernel plus the
// metrics a serving hot path records per probe — one counter add and one
// histogram observe against pointer-stable handles, the pattern the
// instrumented layers use. tools/check_bench_micro.py caps the allowed
// slowdown of this pair so registry overhead cannot creep into the hot path.
void BM_GainAccumSpan512Obs(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  static obs::Registry registry;
  obs::Counter& probeCount = registry.counter(
      "mcmcpar_bench_probes_total", "Probes accumulated by the obs gate.");
  obs::Histogram& probeSeconds = registry.histogram(
      "mcmcpar_bench_probe_seconds", "Synthetic per-probe latency.",
      obs::latencyBuckets());
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscSpan(c.x, c.y, c.r, 512, 512,
                           [&](int y, int x0, int x1) {
                             sum += model::kernels::spanDeltaAdd(
                                 w.gain.row(y) + x0, w.cov.row(y) + x0,
                                 static_cast<std::size_t>(x1 - x0));
                           });
      probeCount.add();
      probeSeconds.observe(1.5e-4);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumSpan512Obs);

void BM_ResyncPerPixel512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  for (auto _ : state) {
    double total = 0.0;
    for (int y = 0; y < 512; ++y) {
      for (int x = 0; x < 512; ++x) {
        total += w.cov(x, y) > 0 ? static_cast<double>(w.gain(x, y)) : 0.0;
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_ResyncPerPixel512);

void BM_ResyncSpan512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  for (auto _ : state) {
    model::kernels::KahanSum total;
    for (int y = 0; y < 512; ++y) {
      total.add(model::kernels::spanSumCovered(w.gain.row(y), w.cov.row(y),
                                               512));
    }
    benchmark::DoNotOptimize(total.value());
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_ResyncSpan512);

void BM_LikelihoodDeltaAdd(benchmark::State& state) {
  model::ModelState s = microState(256, 30, 11);
  rng::Stream stream(12);
  for (auto _ : state) {
    const model::Circle c{stream.uniform(20, 236), stream.uniform(20, 236),
                          10.0};
    benchmark::DoNotOptimize(s.likelihood().deltaAdd(c));
  }
}
BENCHMARK(BM_LikelihoodDeltaAdd);

// --- deltaReplace gate pair ----------------------------------------------
// BM_LikelihoodDeltaReplaceTwoPass is the earlier deltaReplace algorithm,
// copied here: two passes through forEachDiscSpan, each row cut by a fresh
// discRowSpan of the other disc, every segment through the dispatched kernel.
// BM_LikelihoodDeltaReplace runs PixelLikelihood::deltaReplace (each disc's
// spans computed once, short segments summed inline) on the identical moves;
// both return bit-identical deltas, so the ratio is pure algorithm.

double twoPassDeltaReplace(const model::PixelLikelihood& lik,
                           const model::Circle& oldC,
                           const model::Circle& newC) {
  const img::ImageF& gain = lik.gainRaster();
  const img::Image<std::uint16_t>& cov = lik.coverageRaster();
  const auto outsideCut = [&](int y, int x0, int x1, img::RowSpan cut,
                              auto kernel) {
    const bool haveCut = cut.x0 < cut.x1;
    const int leftEnd = haveCut ? std::clamp(cut.x0, x0, x1) : x1;
    const int rightBegin = haveCut ? std::clamp(cut.x1, x0, x1) : x1;
    double delta = 0.0;
    if (x0 < leftEnd) {
      delta += kernel(gain.row(y) + x0, cov.row(y) + x0,
                      static_cast<std::size_t>(leftEnd - x0));
    }
    if (rightBegin < x1) {
      delta += kernel(gain.row(y) + rightBegin, cov.row(y) + rightBegin,
                      static_cast<std::size_t>(x1 - rightBegin));
    }
    return delta;
  };
  double delta = 0.0;
  const int width = gain.width();
  img::forEachDiscSpan(newC.x, newC.y, newC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += outsideCut(
                             y, x0, x1,
                             img::discRowSpan(oldC.x, oldC.y, oldC.r, y, width),
                             model::kernels::spanDeltaAdd);
                       });
  img::forEachDiscSpan(oldC.x, oldC.y, oldC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += outsideCut(
                             y, x0, x1,
                             img::discRowSpan(newC.x, newC.y, newC.r, y, width),
                             model::kernels::spanDeltaRemove);
                       });
  return delta;
}

/// Run `delta(oldC, newC)` over the same seeded stream of move-centre
/// proposals on the same state.
template <typename Delta>
void runDeltaReplace(benchmark::State& state, Delta&& delta) {
  model::ModelState s = microState(256, 30, 13);
  rng::Stream stream(14);
  const auto ids = s.config().aliveIds();
  for (auto _ : state) {
    const model::Circle& oldC = s.config().get(ids[stream.below(ids.size())]);
    model::Circle c = oldC;
    c.x += stream.normal(0, 2.0);
    c.y += stream.normal(0, 2.0);
    benchmark::DoNotOptimize(delta(s.likelihood(), oldC, c));
  }
}

void BM_LikelihoodDeltaReplaceTwoPass(benchmark::State& state) {
  runDeltaReplace(state, twoPassDeltaReplace);
}
BENCHMARK(BM_LikelihoodDeltaReplaceTwoPass);

void BM_LikelihoodDeltaReplace(benchmark::State& state) {
  runDeltaReplace(state, [](const model::PixelLikelihood& lik,
                            const model::Circle& oldC,
                            const model::Circle& newC) {
    return lik.deltaReplace(oldC, newC);
  });
}
BENCHMARK(BM_LikelihoodDeltaReplace);

// --- spanTransitionDelta gate pair -----------------------------------------
// The same 512x512 transition rows (the gate workload's gain and coverage,
// coverage deltas from 40 removed and 40 added discs) through each backend,
// selected with setBackend.

struct TransitionWorkload {
  img::Image<std::int16_t> dOld{512, 512, 0};
  img::Image<std::int16_t> dNew{512, 512, 0};
};

const TransitionWorkload& transitionWorkload() {
  static const TransitionWorkload w = [] {
    TransitionWorkload out;
    rng::Stream s(31);
    for (img::Image<std::int16_t>* counts : {&out.dOld, &out.dNew}) {
      for (int i = 0; i < 40; ++i) {
        img::forEachDiscSpan(s.uniform(0, 512), s.uniform(0, 512),
                             s.uniform(15, 40), 512, 512,
                             [&](int y, int x0, int x1) {
                               std::int16_t* row = counts->row(y);
                               for (int x = x0; x < x1; ++x) ++row[x];
                             });
      }
    }
    return out;
  }();
  return w;
}

void runTransition(benchmark::State& state, model::kernels::Backend backend) {
  const model::kernels::Backend saved = model::kernels::activeBackend();
  if (!model::kernels::setBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  const GateWorkload& g = gateWorkload();
  const TransitionWorkload& t = transitionWorkload();
  for (auto _ : state) {
    double sum = 0.0;
    for (int y = 0; y < 512; ++y) {
      sum += model::kernels::spanTransitionDelta(
          g.gain.row(y), g.cov.row(y), t.dOld.row(y), t.dNew.row(y), 512);
    }
    benchmark::DoNotOptimize(sum);
  }
  model::kernels::setBackend(saved);
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}

void BM_TransitionSpan512Scalar(benchmark::State& state) {
  runTransition(state, model::kernels::Backend::Scalar);
}
BENCHMARK(BM_TransitionSpan512Scalar);

void BM_TransitionSpan512Avx2(benchmark::State& state) {
  runTransition(state, model::kernels::Backend::Avx2);
}
BENCHMARK(BM_TransitionSpan512Avx2);

// --- discRowSpans gate pair ------------------------------------------------
// The row spans of the same 64 r~10 discs on a 512x512 raster (every disc's
// walked rows, as the likelihood's enumerators ask for them) through each
// backend of kernels::discRowSpans: one img::discRowSpan per row against four
// rows per AVX2 step. Both write identical spans.

void runDiscRowSpans(benchmark::State& state, model::kernels::Backend backend) {
  const model::kernels::Backend saved = model::kernels::activeBackend();
  if (!model::kernels::setBackend(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  std::vector<model::Circle> discs;
  rng::Stream s(37);
  for (int i = 0; i < 64; ++i) {
    discs.push_back(model::Circle{s.uniform(12, 500), s.uniform(12, 500),
                                  s.uniform(9.0, 11.0)});
  }
  std::vector<img::RowSpan> spans(32);
  for (auto _ : state) {
    for (const model::Circle& c : discs) {
      model::kernels::discRowSpans(c.x, c.y, c.r, 512,
                                   img::discRowRange(c.y, c.r, 512),
                                   spans.data());
      benchmark::DoNotOptimize(spans.data());
      benchmark::ClobberMemory();
    }
  }
  model::kernels::setBackend(saved);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(discs.size()));
}

void BM_DiscRowSpansScalar(benchmark::State& state) {
  runDiscRowSpans(state, model::kernels::Backend::Scalar);
}
BENCHMARK(BM_DiscRowSpansScalar);

void BM_DiscRowSpansAvx2(benchmark::State& state) {
  runDiscRowSpans(state, model::kernels::Backend::Avx2);
}
BENCHMARK(BM_DiscRowSpansAvx2);

void BM_FullPosteriorRecompute(benchmark::State& state) {
  model::ModelState s = microState(256, 30, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.recomputeLogPosterior());
  }
}
BENCHMARK(BM_FullPosteriorRecompute);

void BM_NeighbourQuery(benchmark::State& state) {
  model::ModelState s = microState(512, static_cast<int>(state.range(0)), 17);
  rng::Stream stream(18);
  for (auto _ : state) {
    std::size_t n = 0;
    s.config().forEachNeighbour(stream.uniform(0, 512), stream.uniform(0, 512),
                                24.0,
                                [&](model::CircleId, const model::Circle&) {
                                  ++n;
                                });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NeighbourQuery)->Arg(50)->Arg(200);

void BM_SequentialIteration(benchmark::State& state) {
  model::ModelState s = microState(384, 40, 19);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(s, registry, 20);
  for (auto _ : state) {
    sampler.step();
  }
  state.SetLabel("one RJ-MCMC iteration (tau of §VI)");
}
BENCHMARK(BM_SequentialIteration);

}  // namespace
