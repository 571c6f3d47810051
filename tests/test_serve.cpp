#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"
#include "obs/metrics.hpp"
#include "serve/image_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/watch.hpp"
#include "shard/remote.hpp"

namespace fs = std::filesystem;

namespace mcmcpar::serve {
namespace {

using namespace std::chrono_literals;

/// Poll `pred` until it holds or `timeout` elapses.
bool waitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds timeout = 20s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// A scratch directory removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("mcmcpar_serve_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Write a small synthetic scene as a PGM file and return its path.
std::string writeScenePgm(const fs::path& dir, const std::string& name,
                          int size = 64, std::uint64_t seed = 5) {
  const img::Scene scene =
      img::generateScene(img::cellScene(size, size, 3, 8.0, seed));
  const fs::path path = dir / name;
  img::writePgm(img::toU8(scene.image), path.string());
  return path.string();
}

ServerOptions tinyServer(unsigned threads = 2) {
  ServerOptions options;
  options.threads = threads;
  options.synthWidth = 64;
  options.synthHeight = 64;
  options.synthCells = 3;
  options.radius = 8.0;
  options.defaultBudget = engine::RunBudget{400, 0};
  return options;
}

// ---------------------------------------------------------------------------
// ImageCache
// ---------------------------------------------------------------------------

TEST(ImageCache, MissThenHitAndAccounting) {
  const TempDir dir;
  const std::string path = writeScenePgm(dir.path, "a.pgm");
  ImageCache cache(64u << 20);

  const auto first = cache.get(path);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto second = cache.get(path);
  EXPECT_EQ(second.get(), first.get());  // same decoded object
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, first->pixelCount() * sizeof(float));
}

TEST(ImageCache, ReloadsWhenTheFileChangesOnDisk) {
  const TempDir dir;
  const std::string path = writeScenePgm(dir.path, "a.pgm", 64, 5);
  ImageCache cache(64u << 20);
  const auto first = cache.get(path);

  // Rewrite with different content and a different mtime.
  (void)writeScenePgm(dir.path, "a.pgm", 64, 99);
  fs::last_write_time(path, fs::file_time_type::clock::now() + 2s);

  const auto second = cache.get(path);
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  // The evicted-by-replacement image stays valid for holders.
  EXPECT_GT(first->pixelCount(), 0u);
}

TEST(ImageCache, EvictsLeastRecentlyUsedWhenOverCapacity) {
  const TempDir dir;
  // Distinct seeds: identical content would dedup to one hash entry.
  const std::string a = writeScenePgm(dir.path, "a.pgm", 64, 11);
  const std::string b = writeScenePgm(dir.path, "b.pgm", 64, 22);
  const std::string c = writeScenePgm(dir.path, "c.pgm", 64, 33);
  const std::size_t oneImage = 64 * 64 * sizeof(float);
  ImageCache cache(2 * oneImage + oneImage / 2);  // room for two

  (void)cache.get(a);
  (void)cache.get(b);
  (void)cache.get(a);  // bump a: b is now LRU
  (void)cache.get(c);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  (void)cache.get(a);  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)cache.get(b);  // miss: was evicted
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ImageCache, ImageLargerThanCapacityPassesThroughUncached) {
  const TempDir dir;
  const std::string path = writeScenePgm(dir.path, "a.pgm");
  ImageCache cache(16);  // nothing fits
  const auto image = cache.get(path);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ImageCache, UnreadablePathThrowsPnmError) {
  ImageCache cache(0);
  EXPECT_THROW((void)cache.get("/nonexistent/nowhere.pgm"), img::PnmError);
}

TEST(ImageCache, IdenticalContentAcrossPathsSharesOneEntry) {
  const TempDir dir;
  // Same seed, two paths: byte-identical files.
  const std::string a = writeScenePgm(dir.path, "a.pgm", 64, 5);
  const std::string b = writeScenePgm(dir.path, "b.pgm", 64, 5);
  ImageCache cache(64u << 20);
  const auto first = cache.get(a);
  const auto second = cache.get(b);
  EXPECT_EQ(first.get(), second.get());  // one resident image
  EXPECT_EQ(cache.stats().entries, 1u);
  // b paid its decode (a miss), but stat-hits the shared entry from now on.
  EXPECT_EQ(cache.stats().misses, 2u);
  (void)cache.get(b);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ImageCache, BypassReadsWarmEntriesButNeverInserts) {
  const TempDir dir;
  const std::string warm = writeScenePgm(dir.path, "warm.pgm", 64, 5);
  const std::string cold = writeScenePgm(dir.path, "cold.pgm", 64, 99);
  ImageCache cache(64u << 20);
  const auto resident = cache.get(warm);
  ASSERT_EQ(cache.stats().entries, 1u);

  // Bypass miss: served, not inserted.
  const auto oneshot = cache.get(cold, /*bypass=*/true);
  ASSERT_NE(oneshot, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, resident->pixelCount() * sizeof(float));

  // Bypass hit: hits are free, so the warm entry is shared as usual.
  const auto hit = cache.get(warm, /*bypass=*/true);
  EXPECT_EQ(hit.get(), resident.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ImageCache, OneshotInternNeverEvictsWarmEntries) {
  // The cache-pollution regression the shard backend relies on: a stream of
  // one-shot tile frames (bypass interns) must leave warm entries resident
  // even when each frame alone would overflow the remaining capacity.
  const TempDir dir;
  const std::string warm = writeScenePgm(dir.path, "warm.pgm", 64, 5);
  const std::size_t oneImage = 64 * 64 * sizeof(float);
  ImageCache cache(oneImage + oneImage / 2);  // room for one, a bit spare
  const auto resident = cache.get(warm);
  ASSERT_EQ(cache.stats().entries, 1u);

  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    const img::Scene scene =
        img::generateScene(img::cellScene(64, 64, 3, 8.0, seed));
    img::ImageF copy = scene.image;
    const std::uint64_t hash = ImageCache::hashFrame(
        copy.width(), copy.height(), 4, copy.pixels().data(),
        copy.pixelCount() * sizeof(float));
    (void)cache.intern(hash, std::move(copy), /*bypass=*/true);
  }
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const auto again = cache.get(warm);
  EXPECT_EQ(again.get(), resident.get());  // still warm, still a hit
}

TEST(ImageCache, InternDedupsByHashAndHexIsStable) {
  const img::Scene scene =
      img::generateScene(img::cellScene(32, 32, 2, 6.0, 3));
  img::ImageF first = scene.image;
  img::ImageF second = scene.image;
  const std::uint64_t hash = ImageCache::hashFrame(
      first.width(), first.height(), 4, first.pixels().data(),
      first.pixelCount() * sizeof(float));
  ImageCache cache(64u << 20);
  const auto a = cache.intern(hash, std::move(first), false);
  const auto b = cache.intern(hash, std::move(second), false);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(ImageCache::hashHex(hash).size(), 16u);
  EXPECT_EQ(ImageCache::hashHex(0x1234abcdull), "000000001234abcd");
}

// ---------------------------------------------------------------------------
// Protocol formatting
// ---------------------------------------------------------------------------

TEST(Protocol, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(protocol::jsonEscape("plain"), "plain");
  EXPECT_EQ(protocol::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(protocol::jsonEscape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(protocol::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Protocol, ReplyAndEventLines) {
  EXPECT_EQ(protocol::okLine("7"), "OK 7");
  EXPECT_EQ(protocol::okLine(""), "OK");
  EXPECT_EQ(protocol::errLine(protocol::kErrUnknownJob, "no such job 9"),
            "ERR UNKNOWN_JOB no such job 9");
  JobEvent event;
  event.id = 3;
  event.type = JobEvent::Type::Progress;
  event.done = 50;
  event.total = 100;
  event.seq = 5;
  EXPECT_EQ(protocol::eventLine(event), "EVENT 3 PROGRESS 50 100 seq=5");
  event.type = JobEvent::Type::Frame;
  event.done = 2;
  event.total = 8;
  event.seq = 6;
  EXPECT_EQ(protocol::eventLine(event), "EVENT 3 FRAME frame=2/8 seq=6");
  event.type = JobEvent::Type::Done;
  event.seq = 7;
  EXPECT_EQ(protocol::eventLine(event), "EVENT 3 DONE seq=7");
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

TEST(Server, RunsASubmittedJobToCompletion) {
  Server server(tinyServer());
  const std::uint64_t id = server.submitLine("synth serial @iters=300");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(id);
    return status && isTerminal(status->state);
  }));
  const auto status = server.status(id);
  ASSERT_TRUE(status);
  EXPECT_EQ(status->state, JobState::Done);
  const auto report = server.result(id);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->iterations, 300u);
  EXPECT_EQ(report->strategy, "serial");
  EXPECT_FALSE(report->cancelled);
}

TEST(Server, RejectsBadSubmissionsAtAdmission) {
  Server server(tinyServer());
  EXPECT_THROW((void)server.submitLine("synth warp"), engine::EngineError);
  EXPECT_THROW((void)server.submitLine("synth serial lanes=4"),
               engine::EngineError);  // unknown option for serial
  EXPECT_THROW((void)server.submitLine("synth"), engine::EngineError);
  EXPECT_THROW((void)server.submitLine("synth serial @bogus=1"),
               engine::EngineError);
  EXPECT_THROW((void)server.submitLine("/no/such/file.pgm serial"),
               img::PnmError);
  EXPECT_EQ(server.stats().jobs.submitted, 0u);
}

TEST(Server, AdmitsJobsWhileOthersRun) {
  // One worker thread: the long job occupies it while more jobs are
  // admitted behind it — continuous admission, no batch barrier.
  ServerOptions options = tinyServer(1);
  Server server(options);
  const std::uint64_t slow =
      server.submitLine("synth serial @iters=400000 @label=slow");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(slow);
    return status && status->state == JobState::Running;
  }));

  std::vector<std::uint64_t> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(server.submitLine("synth serial @iters=200"));
  }
  EXPECT_GE(server.stats().jobs.queued, 1u);
  ASSERT_TRUE(waitFor([&] {
    for (const std::uint64_t id : queued) {
      const auto status = server.status(id);
      if (!status || status->state != JobState::Done) return false;
    }
    return true;
  },
                      60s));
  // The slow job ran first on the only worker, so it finished too.
  const auto slowStatus = server.status(slow);
  ASSERT_TRUE(slowStatus);
  EXPECT_EQ(slowStatus->state, JobState::Done);
}

TEST(Server, WarmVersusColdCacheAccounting) {
  const TempDir dir;
  const std::string path = writeScenePgm(dir.path, "cells.pgm");
  Server server(tinyServer());

  const std::uint64_t cold = server.submitLine(path + " serial @iters=200");
  EXPECT_EQ(server.stats().cache.misses, 1u);
  EXPECT_EQ(server.stats().cache.hits, 0u);

  const std::uint64_t warm1 = server.submitLine(path + " serial @iters=200");
  const std::uint64_t warm2 = server.submitLine(path + " mc3 @iters=200");
  EXPECT_EQ(server.stats().cache.misses, 1u);
  EXPECT_EQ(server.stats().cache.hits, 2u);

  for (const std::uint64_t id : {cold, warm1, warm2}) {
    ASSERT_TRUE(waitFor([&] {
      const auto status = server.status(id);
      return status && status->state == JobState::Done;
    }));
  }
}

TEST(Server, CancelMidRunStopsTheJobAtItsQuantum) {
  Server server(tinyServer());
  const std::uint64_t id =
      server.submitLine("synth serial @iters=500000000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(id);
    return status && status->state == JobState::Running;
  }));
  EXPECT_EQ(server.cancel(id), CancelOutcome::RunningFlagged);
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(id);
    return status && isTerminal(status->state);
  }));
  const auto status = server.status(id);
  EXPECT_EQ(status->state, JobState::Cancelled);
  const auto report = server.result(id);
  ASSERT_TRUE(report);
  EXPECT_TRUE(report->cancelled);
  EXPECT_LT(report->iterations, 500000000u);
  EXPECT_EQ(server.stats().jobs.cancelled, 1u);
}

TEST(Server, CancelWhileQueuedNeverRuns) {
  ServerOptions options = tinyServer(1);
  Server server(options);
  const std::uint64_t slow =
      server.submitLine("synth serial @iters=400000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(slow);
    return status && status->state == JobState::Running;
  }));
  const std::uint64_t queued = server.submitLine("synth serial @iters=200");
  EXPECT_EQ(server.cancel(queued), CancelOutcome::QueuedCancelled);
  const auto status = server.status(queued);
  ASSERT_TRUE(status);
  EXPECT_EQ(status->state, JobState::Cancelled);
  const auto report = server.result(queued);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->iterations, 0u);
  (void)server.cancel(slow);
}

TEST(Server, GracefulShutdownDrainsShortJobs) {
  auto server = std::make_unique<Server>(tinyServer());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(server->submitLine("synth serial @iters=300"));
  }
  server->shutdown(/*drainTimeoutSeconds=*/30.0);
  for (const std::uint64_t id : ids) {
    const auto status = server->status(id);
    ASSERT_TRUE(status);
    EXPECT_EQ(status->state, JobState::Done) << "job " << id;
  }
  EXPECT_THROW((void)server->submitLine("synth serial"),
               engine::EngineError);
}

TEST(Server, ExpiredDrainTimeoutCancelsWhatIsLeft) {
  Server server(tinyServer(1));
  const std::uint64_t running =
      server.submitLine("synth serial @iters=500000000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(running);
    return status && status->state == JobState::Running;
  }));
  const std::uint64_t queued =
      server.submitLine("synth serial @iters=500000000");
  server.shutdown(/*drainTimeoutSeconds=*/0.05);
  for (const std::uint64_t id : {running, queued}) {
    const auto status = server.status(id);
    ASSERT_TRUE(status);
    EXPECT_EQ(status->state, JobState::Cancelled) << "job " << id;
  }
}

TEST(Server, BudgetReturnsToFullWhenIdle) {
  ServerOptions options = tinyServer(4);
  Server server(options);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(server.submitLine("synth serial @iters=300"));
  }
  ASSERT_TRUE(waitFor([&] {
    return server.stats().jobs.done == ids.size();
  }));
  // Idle workers release their charged thread back to the shared budget.
  ASSERT_TRUE(waitFor([&] {
    return server.stats().budgetAvailable == server.stats().threadBudget;
  }));
  EXPECT_EQ(server.stats().threadBudget, 4u);
}

TEST(Server, EventStreamCoversTheJobLifecycle) {
  Server server(tinyServer());
  std::mutex mutex;
  std::vector<JobEvent> events;
  const std::uint64_t token = server.subscribe([&](const JobEvent& event) {
    const std::scoped_lock lock(mutex);
    events.push_back(event);
  });
  const std::uint64_t id =
      server.submitLine("synth serial @iters=2000 @trace=50");
  ASSERT_TRUE(waitFor([&] {
    const std::scoped_lock lock(mutex);
    for (const JobEvent& event : events) {
      if (event.id == id && event.type == JobEvent::Type::Done) return true;
    }
    return false;
  }));
  server.unsubscribe(token);
  const std::scoped_lock lock(mutex);
  bool sawAdmitted = false, sawStarted = false, sawProgress = false;
  for (const JobEvent& event : events) {
    if (event.id != id) continue;
    sawAdmitted |= event.type == JobEvent::Type::Admitted;
    sawStarted |= event.type == JobEvent::Type::Started;
    sawProgress |= event.type == JobEvent::Type::Progress;
  }
  EXPECT_TRUE(sawAdmitted);
  EXPECT_TRUE(sawStarted);
  EXPECT_TRUE(sawProgress);
}

// Run under -DMCMCPAR_SANITIZE=thread in CI to prove race-freedom of the
// admission path: concurrent submitters, one shared budget, events fanning
// out while jobs complete.
TEST(Server, ConcurrentSubmittersStress) {
  Server server(tinyServer(4));
  std::atomic<std::uint64_t> eventCount{0};
  const std::uint64_t token = server.subscribe(
      [&](const JobEvent&) { ++eventCount; });

  constexpr int kThreads = 6;
  constexpr int kJobsPer = 5;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  {
    std::vector<std::jthread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kJobsPer; ++i) {
          ids[t].push_back(server.submitLine(
              i % 2 == 0 ? "synth serial @iters=150"
                         : "synth speculative lanes=2 @iters=150"));
        }
      });
    }
  }
  ASSERT_TRUE(waitFor(
      [&] {
        return server.stats().jobs.done ==
               static_cast<std::uint64_t>(kThreads * kJobsPer);
      },
      60s));
  server.unsubscribe(token);

  // Every id distinct, every job Done.
  std::vector<std::uint64_t> all;
  for (const auto& chunk : ids) all.insert(all.end(), chunk.begin(), chunk.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kJobsPer));
  EXPECT_GT(eventCount.load(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded admission (--max-queued)
// ---------------------------------------------------------------------------

TEST(Server, BoundedAdmissionRejectsWhenTheBacklogIsFull) {
  ServerOptions options = tinyServer(1);
  options.maxConcurrentJobs = 1;
  options.maxQueued = 1;
  Server server(options);

  const std::uint64_t running =
      server.submitLine("synth serial @iters=500000000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(running);
    return status && status->state == JobState::Running;
  }));
  const std::uint64_t queued = server.submitLine("synth serial @iters=200");
  EXPECT_THROW((void)server.submitLine("synth serial @iters=200"),
               QueueFullError);
  // QueueFullError is an EngineError, so generic handlers keep working and
  // the message names the cap.
  try {
    (void)server.submitLine("synth serial @iters=200");
    FAIL() << "expected QueueFullError";
  } catch (const engine::EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos)
        << e.what();
  }

  // Admission reopens once the backlog drains.
  (void)server.cancel(running);
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(queued);
    return status && isTerminal(status->state);
  }));
  const std::uint64_t next = server.submitLine("synth serial @iters=200");
  EXPECT_GT(next, queued);
  server.shutdown(10.0);
}

// ---------------------------------------------------------------------------
// Socket front-end, end to end on an ephemeral port
// ---------------------------------------------------------------------------

struct SocketFixture : ::testing::Test {
  void SetUp() override {
    server = std::make_unique<Server>(tinyServer());
    frontend = std::make_unique<SocketFrontend>(
        *server, /*port=*/0, [this] { shutdownRequested = true; });
    client.connect("127.0.0.1", frontend->port(), 30.0);
  }
  std::unique_ptr<Server> server;
  std::unique_ptr<SocketFrontend> frontend;
  Client client;
  std::atomic<bool> shutdownRequested{false};
};

TEST_F(SocketFixture, SubmitWaitResultRoundTrip) {
  const std::uint64_t id = client.submit("synth serial @iters=300");
  EXPECT_GE(id, 1u);
  const std::string state = client.wait(id);
  EXPECT_EQ(state, "done");
  const std::string reply = client.request("RESULT " + std::to_string(id));
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"state\": \"done\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"iterations\": 300"), std::string::npos) << reply;
}

TEST_F(SocketFixture, StatusAndStats) {
  const std::uint64_t id = client.submit("synth serial @iters=300");
  const std::string status = client.request("STATUS " + std::to_string(id));
  EXPECT_EQ(status.rfind("OK " + std::to_string(id), 0), 0u) << status;
  (void)client.wait(id);
  const std::string stats = client.request("STATS");
  EXPECT_NE(stats.find("\"done\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"thread_budget\": 2"), std::string::npos) << stats;
  // The cache counters added for the streaming workload are always present.
  EXPECT_NE(stats.find("\"cache_oneshot_bypasses\": "), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"cache_interned\": "), std::string::npos) << stats;
}

TEST_F(SocketFixture, ErrorCodesMatchTheProtocolSpec) {
  EXPECT_EQ(client.request("BOGUS").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(client.request("STATUS 999").rfind("ERR UNKNOWN_JOB", 0), 0u);
  EXPECT_EQ(client.request("STATUS x").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(client.request("SUBMIT synth warp").rfind("ERR BAD_JOB", 0), 0u);
  const std::uint64_t id = client.submit("synth serial @iters=400000000");
  EXPECT_EQ(client.request("RESULT " + std::to_string(id))
                .rfind("ERR PENDING", 0),
            0u);
  EXPECT_EQ(client.request("CANCEL " + std::to_string(id)).rfind("OK", 0),
            0u);
}

TEST_F(SocketFixture, CancelOverSocketMidRun) {
  const std::uint64_t id = client.submit("synth serial @iters=500000000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server->status(id);
    return status && status->state == JobState::Running;
  }));
  const std::string reply = client.request("CANCEL " + std::to_string(id));
  EXPECT_EQ(reply, "OK " + std::to_string(id) + " cancelling");
  EXPECT_EQ(client.wait(id), "cancelled");
}

TEST_F(SocketFixture, WaitStreamsProgressEvents) {
  const std::uint64_t id =
      client.submit("synth serial @iters=40000 @trace=100");
  std::vector<std::string> events;
  const std::string state = client.wait(
      id, [&](const std::string& line) { events.push_back(line); });
  EXPECT_EQ(state, "done");
  ASSERT_FALSE(events.empty());
  // The last event is terminal; progress lines (if the job was slow enough
  // to emit any) carry "<done> <total>".
  EXPECT_NE(events.back().find("DONE"), std::string::npos);
}

/// The trailing `seq=<n>` of an EVENT line (0 when absent/unparseable).
std::uint64_t eventSeqOf(const std::string& line) {
  const std::size_t pos = line.rfind(" seq=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + 5, nullptr, 10);
}

TEST_F(SocketFixture, EventSeqIsMonotonicPerJob) {
  const std::uint64_t id =
      client.submit("synth serial @iters=40000 @trace=100");
  std::vector<std::string> events;
  const std::string state = client.wait(
      id, [&](const std::string& line) { events.push_back(line); });
  EXPECT_EQ(state, "done");
  ASSERT_FALSE(events.empty());
  std::uint64_t last = 0;
  for (const std::string& line : events) {
    const std::uint64_t seq = eventSeqOf(line);
    EXPECT_GT(seq, last) << line;  // strictly increasing; gaps are fine
    last = seq;
  }
}

TEST_F(SocketFixture, SequenceJobStreamsOrderedFrameEvents) {
  const std::uint64_t id =
      client.submit("synth serial @sequence=4 @iters=300");
  std::vector<std::string> events;
  const std::string state = client.wait(
      id, [&](const std::string& line) { events.push_back(line); });
  EXPECT_EQ(state, "done");

  std::vector<std::string> frames;
  std::uint64_t last = 0;
  for (const std::string& line : events) {
    const std::uint64_t seq = eventSeqOf(line);
    EXPECT_GT(seq, last) << line;
    last = seq;
    if (line.find(" FRAME ") != std::string::npos) frames.push_back(line);
  }
  ASSERT_EQ(frames.size(), 4u);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_NE(
        frames[k].find("frame=" + std::to_string(k) + "/4"),
        std::string::npos)
        << frames[k];
  }

  const std::string json = client.report(id);
  EXPECT_NE(json.find("\"frames\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"tracks\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"label\": \"synth.0\""), std::string::npos) << json;
}

TEST_F(SocketFixture, InlineUploadedSequenceRunsEndToEnd) {
  img::DriftSpec drift;
  drift.scene = img::cellScene(48, 48, 2, 8.0, 9);
  drift.frames = 3;
  const std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);
  for (std::size_t k = 0; k < scenes.size(); ++k) {
    (void)client.upload("cam." + std::to_string(k), scenes[k].image);
  }
  const std::uint64_t id =
      client.submit("cam serial @sequence=3 @image=inline @iters=200");
  EXPECT_EQ(client.wait(id), "done");
  const std::string json = client.report(id);
  EXPECT_NE(json.find("\"label\": \"cam.0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"label\": \"cam.2\""), std::string::npos) << json;

  // A frame that was never uploaded fails the SUBMIT, not the worker.
  EXPECT_EQ(client.request("SUBMIT cam serial @sequence=5 @image=inline")
                .rfind("ERR BAD_JOB", 0),
            0u);
  // An inline sequence needs a decimal count, not a glob.
  EXPECT_EQ(client.request("SUBMIT cam serial @sequence=*.pgm @image=inline")
                .rfind("ERR BAD_JOB", 0),
            0u);
}

TEST_F(SocketFixture, ShutdownCommandFiresTheCallbackAndRejectsNewJobs) {
  EXPECT_EQ(client.request("SHUTDOWN"), "OK draining");
  EXPECT_TRUE(waitFor([&] { return shutdownRequested.load(); }));
  server->shutdown(5.0);
  Client second;
  second.connect("127.0.0.1", frontend->port(), 10.0);
  const std::string reply = second.request("SUBMIT synth serial");
  EXPECT_EQ(reply.rfind("ERR SHUTTING_DOWN", 0), 0u) << reply;
}

TEST_F(SocketFixture, ReportCarriesTheDetectedCircleList) {
  const std::uint64_t id = client.submit("synth serial @iters=400");
  EXPECT_EQ(client.wait(id), "done");
  const std::string json = client.report(id);
  EXPECT_NE(json.find("\"circles_detail\": ["), std::string::npos) << json;
  const shard::remote::TileReportJson parsed =
      shard::remote::parseReportJson(json);
  EXPECT_EQ(parsed.state, "done");
  const auto report = server->result(id);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(parsed.circles.size(), report->circles.size());

  // REPORT before a terminal state answers PENDING, exactly like RESULT.
  const std::uint64_t slow = client.submit("synth serial @iters=400000000");
  EXPECT_EQ(client.request("REPORT " + std::to_string(slow))
                .rfind("ERR PENDING", 0),
            0u);
  EXPECT_EQ(client.request("CANCEL " + std::to_string(slow)).rfind("OK", 0),
            0u);
}

TEST(Socket, QueueFullSubmitRepliesErrQueueFull) {
  ServerOptions options = tinyServer(1);
  options.maxConcurrentJobs = 1;
  options.maxQueued = 1;
  Server server(options);
  SocketFrontend frontend(server, /*port=*/0);
  Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);

  const std::uint64_t running = client.submit("synth serial @iters=500000000");
  ASSERT_TRUE(waitFor([&] {
    const auto status = server.status(running);
    return status && status->state == JobState::Running;
  }));
  (void)client.submit("synth serial @iters=200");
  const std::string reply = client.request("SUBMIT synth serial @iters=200");
  EXPECT_EQ(reply.rfind("ERR QUEUE_FULL", 0), 0u) << reply;
  EXPECT_EQ(client.request("CANCEL " + std::to_string(running))
                .rfind("OK", 0),
            0u);
  frontend.stop();
  server.shutdown(10.0);
}

// ---------------------------------------------------------------------------
// Binary frames (UPLOAD) and inline submission
// ---------------------------------------------------------------------------

/// Open a raw TCP connection, send `bytes` verbatim, half-close the write
/// side and return the first reply line — for frames Client refuses to
/// produce (truncated bodies).
std::string rawExchange(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply += c;
  ::close(fd);
  return reply;
}

img::ImageF testSceneF(std::uint64_t seed = 5) {
  return img::generateScene(img::cellScene(64, 64, 3, 8.0, seed)).image;
}

TEST_F(SocketFixture, UploadThenInlineSubmitRoundTrip) {
  const img::ImageU8 image = img::toU8(testSceneF());
  const std::string hash = client.upload("tile", image);
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash, ImageCache::hashHex(ImageCache::hashImage(image)));

  const std::uint64_t id =
      client.submit("tile serial @iters=300 @image=inline");
  EXPECT_EQ(client.wait(id), "done");
  const auto report = server->result(id);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->iterations, 300u);
}

TEST_F(SocketFixture, FloatFrameCarriesExactPixels) {
  // The float32 frame's hash covers the raw payload: a matching reply hash
  // proves the pixels arrived bit-for-bit, no quantisation in transit.
  const img::ImageF image = testSceneF();
  const std::string hash = client.upload("exact", image);
  EXPECT_EQ(hash,
            ImageCache::hashHex(ImageCache::hashFrame(
                image.width(), image.height(), 4, image.pixels().data(),
                image.pixelCount() * sizeof(float))));
  const std::uint64_t id =
      client.submit("exact serial @iters=200 @image=inline");
  EXPECT_EQ(client.wait(id), "done");
}

TEST_F(SocketFixture, ReuploadDedupsToOneCacheEntry) {
  const img::ImageU8 image = img::toU8(testSceneF());
  const std::string first = client.upload("one", image);
  const std::string second = client.upload("two", image);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server->stats().cache.entries, 1u);
  EXPECT_GE(server->stats().cache.hits, 1u);
}

TEST_F(SocketFixture, OneshotUploadBypassesTheCache) {
  const img::ImageU8 warm = img::toU8(testSceneF(5));
  const img::ImageU8 tile = img::toU8(testSceneF(99));
  (void)client.upload("warm", warm);
  EXPECT_EQ(server->stats().cache.entries, 1u);
  (void)client.upload("tile", tile, /*oneshot=*/true);
  EXPECT_EQ(server->stats().cache.entries, 1u);  // not inserted
  // Still runnable: the connection holds the frame, the job pins it.
  const std::uint64_t id =
      client.submit("tile serial @iters=200 @image=inline");
  EXPECT_EQ(client.wait(id), "done");
}

TEST_F(SocketFixture, InlineWithoutUploadIsBadJob) {
  const std::string reply =
      client.request("SUBMIT ghost serial @image=inline");
  EXPECT_EQ(reply.rfind("ERR BAD_JOB", 0), 0u) << reply;
  EXPECT_NE(reply.find("no upload named 'ghost'"), std::string::npos)
      << reply;
}

TEST_F(SocketFixture, ZeroByteFrameIsBadFrame) {
  const std::string reply = client.request("UPLOAD z 0 0 0");
  EXPECT_EQ(reply.rfind("ERR BAD_FRAME", 0), 0u) << reply;
  // The connection survives a well-formed-header rejection.
  EXPECT_EQ(client.request("PING"), "OK pong");
}

TEST_F(SocketFixture, PayloadDimensionMismatchIsBadFrame) {
  // 4x4 must be 16 (gray8) or 64 (float32) bytes; 10 is neither. send()
  // appends the newline that completes the 10-byte body.
  client.send("UPLOAD m 4 4 10");
  client.send("012345678");
  const std::string reply = client.readLine();
  EXPECT_EQ(reply.rfind("ERR BAD_FRAME", 0), 0u) << reply;
  EXPECT_NE(reply.find("16"), std::string::npos) << reply;
  EXPECT_NE(reply.find("64"), std::string::npos) << reply;
  EXPECT_EQ(client.request("PING"), "OK pong");
}

TEST_F(SocketFixture, OversizedDimensionsAreTooLarge) {
  client.send("UPLOAD big 70000 70000 100");
  client.send(std::string(99, 'x'));  // the declared 100-byte body
  const std::string reply = client.readLine();
  EXPECT_EQ(reply.rfind("ERR TOO_LARGE", 0), 0u) << reply;
  EXPECT_EQ(client.request("PING"), "OK pong");
}

TEST_F(SocketFixture, MalformedHeaderClosesTheConnection) {
  // Without a parseable nbytes the stream position is unknowable, so the
  // server must reply and drop the connection rather than desync.
  const std::string reply = client.request("UPLOAD only-an-id");
  EXPECT_EQ(reply.rfind("ERR BAD_FRAME", 0), 0u) << reply;
  EXPECT_THROW((void)client.request("PING"), ProtocolError);
}

TEST(Socket, UploadLargerThanCacheCapacityIsTooLarge) {
  ServerOptions options = tinyServer();
  options.cacheBytes = 64;  // no frame fits
  Server server(options);
  SocketFrontend frontend(server, /*port=*/0);
  Client client;
  client.connect("127.0.0.1", frontend.port(), 30.0);
  const img::ImageU8 image = img::toU8(testSceneF());
  try {
    (void)client.upload("big", image);
    FAIL() << "expected TOO_LARGE";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("ERR TOO_LARGE"),
              std::string::npos)
        << e.what();
  }
  frontend.stop();
  server.shutdown(5.0);
}

TEST(Socket, TruncatedFrameIsBadFrame) {
  Server server(tinyServer());
  SocketFrontend frontend(server, /*port=*/0);
  // 16 bytes promised, 3 delivered, then EOF.
  const std::string reply =
      rawExchange(frontend.port(), "UPLOAD t 4 4 16\nABC");
  EXPECT_EQ(reply.rfind("ERR BAD_FRAME", 0), 0u) << reply;
  EXPECT_NE(reply.find("truncated"), std::string::npos) << reply;
  frontend.stop();
  server.shutdown(5.0);
}

TEST(Socket, EndlessLineIsCutOffWithLineTooLong) {
  Server server(tinyServer());
  SocketFrontend frontend(server, /*port=*/0);
  obs::Counter& rejected = obs::Registry::global().counter(
      "mcmcpar_serve_rejections_total",
      "Connections the server cut off, by reason.",
      {{"reason", "line_too_long"}});
  const std::uint64_t before = rejected.value();

  // 2 MiB without a newline: past the 1 MiB cap the server must answer and
  // hang up instead of buffering and rescanning forever. It stops reading,
  // so the tail of the send may fail once it closes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(frontend.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string chunk(64 * 1024, 'x');
  for (std::size_t sent = 0; sent < (std::size_t{2} << 20);) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply += c;
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR LINE_TOO_LONG", 0), 0u) << reply;
  EXPECT_EQ(rejected.value(), before + 1);

  // The handler that cut the line off does not take the server with it.
  Client other;
  other.connect("127.0.0.1", frontend.port(), 30.0);
  EXPECT_EQ(other.request("PING"), "OK pong");
  frontend.stop();
  server.shutdown(5.0);
}

TEST(Server, OneshotJobDoesNotPolluteTheImageCache) {
  const TempDir dir;
  const std::string warm = writeScenePgm(dir.path, "warm.pgm", 64, 5);
  const std::string tile = writeScenePgm(dir.path, "tile.pgm", 64, 99);
  Server server(tinyServer());
  const std::uint64_t warmId =
      server.submitLine(warm + " serial @iters=200");
  EXPECT_EQ(server.stats().cache.entries, 1u);
  const std::uint64_t tileId =
      server.submitLine(tile + " serial @iters=200 @oneshot=1");
  EXPECT_EQ(server.stats().cache.entries, 1u);  // bypass honoured
  for (const std::uint64_t id : {warmId, tileId}) {
    ASSERT_TRUE(waitFor([&] {
      const auto status = server.status(id);
      return status && status->state == JobState::Done;
    }));
  }
  EXPECT_EQ(server.stats().cache.entries, 1u);
}

// ---------------------------------------------------------------------------
// Watch front-end
// ---------------------------------------------------------------------------

TEST(Watch, ManifestDropProducesAResultFile) {
  const TempDir dir;
  Server server(tinyServer());
  WatchFrontend watch(server, dir.path.string(), /*pollMillis=*/20);

  // Write-then-rename, as the protocol recommends.
  const fs::path tmp = dir.path / "jobs.tmp";
  {
    std::ofstream out(tmp);
    out << "# two quick jobs\n"
        << "synth serial @iters=200\n"
        << "synth speculative lanes=2 @iters=200\n";
  }
  fs::rename(tmp, dir.path / "jobs.manifest");

  const fs::path result = dir.path / "jobs.manifest.result.json";
  ASSERT_TRUE(waitFor([&] { return fs::exists(result); }, 60s));
  std::ifstream in(result);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"completed\": 2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"strategy\": \"speculative\""), std::string::npos)
      << text;
}

TEST(Watch, UnparseableManifestYieldsAnErrorResult) {
  const TempDir dir;
  Server server(tinyServer());
  WatchFrontend watch(server, dir.path.string(), /*pollMillis=*/20);
  {
    std::ofstream out(dir.path / "bad.tmp");
    out << "synth serial bogus-token\n";
  }
  fs::rename(dir.path / "bad.tmp", dir.path / "bad.manifest");
  const fs::path result = dir.path / "bad.manifest.result.json";
  ASSERT_TRUE(waitFor([&] { return fs::exists(result); }, 30s));
  std::ifstream in(result);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"error\""), std::string::npos) << text;
  EXPECT_NE(text.find("bogus-token"), std::string::npos) << text;
}

TEST(Watch, PartiallyRejectedManifestReportsAdmissionErrors) {
  const TempDir dir;
  Server server(tinyServer());
  WatchFrontend watch(server, dir.path.string(), /*pollMillis=*/20);
  {
    std::ofstream out(dir.path / "mixed.tmp");
    out << "synth serial @iters=200\n"
        << "/no/such/file.pgm serial @iters=200\n";
  }
  fs::rename(dir.path / "mixed.tmp", dir.path / "mixed.manifest");
  const fs::path result = dir.path / "mixed.manifest.result.json";
  ASSERT_TRUE(waitFor([&] { return fs::exists(result); }, 30s));
  std::ifstream in(result);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The good job ran; the rejected one is reported, not dropped.
  EXPECT_NE(text.find("\"completed\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"admission_errors\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"failed\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("no/such/file.pgm"), std::string::npos) << text;
}

TEST(Watch, ExistingResultFilePreventsReingestion) {
  const TempDir dir;
  Server server(tinyServer());
  {
    std::ofstream out(dir.path / "old.manifest");
    out << "synth serial @iters=100\n";
  }
  {
    std::ofstream out(dir.path / "old.manifest.result.json");
    out << "{\"manifest\": \"old\", \"completed\": 1}\n";
  }
  WatchFrontend watch(server, dir.path.string(), /*pollMillis=*/20);
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(server.stats().jobs.submitted, 0u);
}

}  // namespace
}  // namespace mcmcpar::serve
