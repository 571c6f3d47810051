#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <sstream>

#include "engine/batch.hpp"
#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace mcmcpar::serve {

namespace {

/// Receive timeout applied to every server-side connection so handler
/// threads poll the stopping flag instead of blocking in recv forever.
constexpr int kPollMillis = 200;

/// Binary-frame bounds: a declared dimension past kMaxFrameDim or payload
/// past kMaxFrameBytes is rejected (TOO_LARGE) without reading the body; a
/// payload within bounds is fully consumed even when the frame is rejected,
/// so the connection stays usable. kFrameReadMillis bounds how long the
/// server waits for a slow/truncated body before giving up on it.
constexpr std::uint64_t kMaxFrameDim = 1u << 16;
constexpr std::uint64_t kMaxFrameBytes = 1u << 30;
constexpr int kFrameReadMillis = 30000;

/// Uploads retained per connection; the oldest is dropped past the cap.
constexpr std::size_t kMaxUploadsPerConnection = 64;

/// Longest command line the server buffers while waiting for its newline.
/// A client that sends more without one is answered ERR LINE_TOO_LONG and
/// disconnected, so it can neither grow the buffer without bound nor keep
/// a handler rescanning it.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

void setRecvTimeout(int fd, long millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool sendAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool sendLine(int fd, const std::string& line) {
  return sendAll(fd, line + "\n");
}

/// Read exactly `want` bytes of a frame body into `out` (or discard them
/// when `out` is null), draining `buffer` (bytes received past the header
/// line) first. False on EOF, error, stop, or the frame-read deadline.
bool readBody(int fd, std::string& buffer, char* out, std::size_t want,
              const std::atomic<bool>& stopping) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kFrameReadMillis);
  std::size_t got = 0;
  char scratch[65536];
  if (!buffer.empty()) {
    const std::size_t take = std::min(want, buffer.size());
    if (out != nullptr) std::memcpy(out, buffer.data(), take);
    buffer.erase(0, take);
    got = take;
  }
  while (got < want) {
    if (stopping.load() || std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    char* dst = out != nullptr ? out + got : scratch;
    const std::size_t room =
        out != nullptr ? want - got : std::min(want - got, sizeof(scratch));
    const ssize_t n = ::recv(fd, dst, room, 0);
    if (n == 0) return false;  // client closed mid-frame
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // poll tick: re-check stopping_ and the deadline
      }
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// The command word metrics are labelled with. Returns a member of the
/// fixed protocol vocabulary (or "UNKNOWN") rather than the raw token, so
/// a garbage-spewing client cannot create unbounded label cardinality.
const char* commandWord(const std::string& line) {
  static constexpr const char* kCommands[] = {
      "PING",   "SUBMIT", "UPLOAD",  "STATUS",   "RESULT", "REPORT",
      "CANCEL", "WAIT",   "STATS",   "METRICS",  "SHUTDOWN"};
  const std::size_t space = line.find_first_of(" \t");
  const std::string word =
      space == std::string::npos ? line : line.substr(0, space);
  for (const char* known : kCommands) {
    if (word == known) return known;
  }
  return "UNKNOWN";
}

/// +1 on a gauge for this scope (active connection tracking survives every
/// exit path of the handler).
class GaugeScope {
 public:
  explicit GaugeScope(obs::Gauge& gauge) : gauge_(gauge) { gauge_.add(1.0); }
  ~GaugeScope() { gauge_.add(-1.0); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  obs::Gauge& gauge_;
};

/// Parse a strict decimal job id; false on anything else.
bool parseId(const std::string& text, std::uint64_t& id) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  id = value;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketFrontend
// ---------------------------------------------------------------------------

SocketFrontend::SocketFrontend(Server& server, std::uint16_t port,
                               std::function<void()> onShutdown)
    : server_(server), onShutdown_(std::move(onShutdown)) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw ProtocolError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd_, 64) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw ProtocolError("cannot listen on 127.0.0.1:" + std::to_string(port) +
                        ": " + reason);
  }
  socklen_t len = sizeof(addr);
  (void)getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  setRecvTimeout(listenFd_, kPollMillis);  // accept() polls via SO_RCVTIMEO

  acceptor_ = std::jthread([this] { acceptLoop(); });
}

SocketFrontend::~SocketFrontend() { stop(); }

void SocketFrontend::stop() {
  if (stopping_.exchange(true)) return;
  const int fd = listenFd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::list<std::unique_ptr<Connection>> connections;
  {
    const std::scoped_lock lock(connectionsMutex_);
    connections.swap(connections_);
  }
  connections.clear();  // joins: handlers see stopping_ within kPollMillis
}

void SocketFrontend::acceptLoop() {
  while (!stopping_.load()) {
    const int listenFd = listenFd_.load();
    if (listenFd < 0) break;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;  // EAGAIN (poll tick) or transient error
    }
    setRecvTimeout(fd, kPollMillis);
    const std::scoped_lock lock(connectionsMutex_);
    // Reap handlers that already finished (their join is instantaneous).
    for (auto it = connections_.begin(); it != connections_.end();) {
      it = (*it)->done.load() ? connections_.erase(it) : std::next(it);
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    connection->thread = std::jthread([this, fd, raw] {
      handleConnection(fd);
      raw->done.store(true);
    });
    connections_.push_back(std::move(connection));
  }
}

void SocketFrontend::handleConnection(int fd) {
  obs::Registry& registry = obs::Registry::global();
  const GaugeScope connectionGauge(
      registry.gauge("mcmcpar_serve_active_connections",
                     "Socket connections currently open."));
  std::string buffer;
  std::size_t scanned = 0;  // prefix of `buffer` known to hold no newline
  char chunk[4096];
  bool keepOpen = true;
  ConnectionState state;
  while (keepOpen && !stopping_.load()) {
    const std::size_t newline = buffer.find('\n', scanned);
    if (newline == std::string::npos ? buffer.size() > kMaxLineBytes
                                     : newline > kMaxLineBytes) {
      registry
          .counter("mcmcpar_serve_rejections_total",
                   "Connections the server cut off, by reason.",
                   {{"reason", "line_too_long"}})
          .add();
      (void)sendLine(fd, protocol::errLine(
                             protocol::kErrLineTooLong,
                             "command line exceeds " +
                                 std::to_string(kMaxLineBytes) + " bytes"));
      break;
    }
    if (newline == std::string::npos) {
      scanned = buffer.size();
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) break;  // client closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // poll tick: re-check stopping_
        }
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    scanned = 0;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // UPLOAD is the one command followed by a binary body, so it cannot go
    // through the line dispatcher: the body is consumed here, from `buffer`
    // (bytes already received) plus the socket.
    const char* command = commandWord(line);
    const auto commandStart = std::chrono::steady_clock::now();
    obs::Span commandSpan("serve", std::string("cmd:") + command);
    const std::string reply =
        line.rfind("UPLOAD", 0) == 0 &&
                (line.size() == 6 || line[6] == ' ' || line[6] == '\t')
            ? handleUpload(line, fd, buffer, state, keepOpen)
            : dispatch(line, fd, state, keepOpen);
    const bool sent = reply.empty() || sendLine(fd, reply);
    // Every command is counted and timed — including REPORT and WAIT,
    // which the pre-registry stats never saw. WAIT's latency spans its
    // whole event stream by design.
    registry
        .counter("mcmcpar_serve_commands_total",
                 "Socket commands handled, by command word.",
                 {{"command", command}})
        .add();
    registry
        .histogram("mcmcpar_serve_command_seconds",
                   "Wall time from parsing a command to its final reply.",
                   obs::latencyBuckets(), {{"command", command}})
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - commandStart)
                     .count());
    if (!sent) break;
  }
  ::close(fd);
}

std::string SocketFrontend::handleUpload(const std::string& line, int fd,
                                         std::string& buffer,
                                         ConnectionState& state,
                                         bool& keepOpen) {
  std::istringstream tokens(line);
  std::string command, id, wText, hText, nText, extra;
  tokens >> command >> id >> wText >> hText >> nText;
  std::uint64_t width = 0;
  std::uint64_t height = 0;
  std::uint64_t nbytes = 0;
  bool headerOk = !id.empty() && parseId(wText, width) &&
                  parseId(hText, height) && parseId(nText, nbytes);
  bool oneshot = false;
  if (headerOk && tokens >> extra) {
    if (extra == "oneshot" && !(tokens >> extra)) {
      oneshot = true;
    } else {
      headerOk = false;
    }
  }
  if (!headerOk) {
    // The body length is unknowable from a malformed header, so the stream
    // cannot be resynchronised: reply and drop the connection.
    keepOpen = false;
    return protocol::errLine(
        protocol::kErrBadFrame,
        "expected 'UPLOAD <id> <w> <h> <nbytes> [oneshot]', got '" + line +
            "'");
  }

  // A well-formed header declares the body length, so a rejected frame can
  // still be drained and the connection kept: discard the payload (bounded
  // by kMaxFrameBytes — past that, close instead of reading a gigabyte).
  const auto reject = [&](const char* code, const std::string& message) {
    if (nbytes > kMaxFrameBytes ||
        !readBody(fd, buffer, nullptr, nbytes, stopping_)) {
      keepOpen = false;
    }
    return protocol::errLine(code, message);
  };

  if (width == 0 || height == 0 || nbytes == 0) {
    return reject(protocol::kErrBadFrame,
                  "zero-size frame: w, h and nbytes must all be > 0");
  }
  if (width > kMaxFrameDim || height > kMaxFrameDim ||
      nbytes > kMaxFrameBytes) {
    return reject(protocol::kErrTooLarge,
                  "frame exceeds protocol bounds (max dimension " +
                      std::to_string(kMaxFrameDim) + ", max payload " +
                      std::to_string(kMaxFrameBytes) + " bytes)");
  }
  const std::uint64_t pixels = width * height;
  if (nbytes != pixels && nbytes != 4 * pixels) {
    return reject(protocol::kErrBadFrame,
                  "nbytes " + nText + " matches neither w*h (gray8, " +
                      std::to_string(pixels) + ") nor 4*w*h (float32, " +
                      std::to_string(4 * pixels) + ")");
  }
  const std::size_t cacheCapacity = server_.options().cacheBytes;
  if (cacheCapacity != 0 && pixels * sizeof(float) > cacheCapacity) {
    return reject(protocol::kErrTooLarge,
                  "decoded image (" + std::to_string(pixels * sizeof(float)) +
                      " bytes) exceeds the server's image cache capacity (" +
                      std::to_string(cacheCapacity) + " bytes)");
  }

  std::string body(static_cast<std::size_t>(nbytes), '\0');
  if (!readBody(fd, buffer, body.data(), body.size(), stopping_)) {
    keepOpen = false;  // truncated mid-frame: the stream is desynchronised
    return protocol::errLine(protocol::kErrBadFrame,
                             "truncated frame: connection delivered fewer "
                             "than the declared " +
                                 nText + " payload bytes");
  }

  const int w = static_cast<int>(width);
  const int h = static_cast<int>(height);
  const bool floatFrame = nbytes == 4 * pixels;
  const std::uint64_t hash = ImageCache::hashFrame(
      w, h, floatFrame ? 4 : 1, body.data(), body.size());
  img::ImageF image(w, h);
  if (floatFrame) {
    std::memcpy(image.pixels().data(), body.data(), body.size());
  } else {
    for (std::size_t i = 0; i < pixels; ++i) {
      image.pixels()[i] = static_cast<float>(
                              static_cast<unsigned char>(body[i])) /
                          255.0f;
    }
  }
  std::shared_ptr<const img::ImageF> interned =
      server_.internUpload(hash, std::move(image), oneshot);

  if (state.uploads.find(id) == state.uploads.end()) {
    state.uploadOrder.push_back(id);
    if (state.uploadOrder.size() > kMaxUploadsPerConnection) {
      state.uploads.erase(state.uploadOrder.front());
      state.uploadOrder.erase(state.uploadOrder.begin());
    }
  }
  state.uploads[id] = std::move(interned);
  return protocol::okLine(id + " " + ImageCache::hashHex(hash));
}

std::string SocketFrontend::dispatch(const std::string& line, int fd,
                                     ConnectionState& state, bool& keepOpen) {
  std::istringstream tokens(line);
  std::string command;
  tokens >> command;

  if (command == "PING") return protocol::okLine("pong");

  if (command == "SUBMIT") {
    std::string payload;
    std::getline(tokens, payload);
    try {
      const engine::ManifestEntry entry = engine::parseManifestLine(payload);
      std::shared_ptr<const img::ImageF> inlineImage;
      std::vector<std::shared_ptr<const img::ImageF>> inlineFrames;
      if (entry.inlineImage && !entry.sequence.empty()) {
        // An inline sequence names its frames `<image>.0` .. `<image>.N-1`
        // in this connection's upload namespace; gather them in order.
        const std::optional<std::uint64_t> count =
            stream::parseFrameCount(entry.sequence);
        if (!count) {
          return protocol::errLine(
              protocol::kErrBadJob,
              "@sequence with @image=inline requires a decimal frame "
              "count, got '" +
                  entry.sequence + "'");
        }
        for (std::uint64_t k = 0; k < *count; ++k) {
          const std::string frameId =
              entry.image + "." + std::to_string(k);
          const auto it = state.uploads.find(frameId);
          if (it == state.uploads.end()) {
            return protocol::errLine(
                protocol::kErrBadJob,
                "@sequence: no upload named '" + frameId +
                    "' on this connection (send UPLOAD frames first)");
          }
          inlineFrames.push_back(it->second);
        }
      } else if (entry.inlineImage) {
        const auto it = state.uploads.find(entry.image);
        if (it == state.uploads.end()) {
          return protocol::errLine(
              protocol::kErrBadJob,
              "@image=inline: no upload named '" + entry.image +
                  "' on this connection (send an UPLOAD frame first)");
        }
        inlineImage = it->second;
      }
      const std::uint64_t id = server_.submit(entry, std::move(inlineImage),
                                              std::move(inlineFrames));
      return protocol::okLine(std::to_string(id));
    } catch (const QueueFullError& e) {
      return protocol::errLine(protocol::kErrQueueFull, e.what());
    } catch (const engine::EngineError& e) {
      return protocol::errLine(server_.draining() ? protocol::kErrShuttingDown
                                                  : protocol::kErrBadJob,
                               e.what());
    } catch (const img::PnmError& e) {
      return protocol::errLine(protocol::kErrBadJob, e.what());
    } catch (const std::exception& e) {
      // Any other parser/admission exception must reject the request, not
      // escape the connection thread and terminate the whole server.
      return protocol::errLine(protocol::kErrBadJob, e.what());
    }
  }

  if (command == "STATUS" || command == "RESULT" || command == "REPORT" ||
      command == "CANCEL" || command == "WAIT") {
    std::string idText;
    tokens >> idText;
    std::uint64_t id = 0;
    if (!parseId(idText, id)) {
      return protocol::errLine(protocol::kErrBadRequest,
                               "expected '" + command + " <id>'");
    }
    const std::optional<JobStatus> status = server_.status(id);
    if (!status) {
      return protocol::errLine(protocol::kErrUnknownJob,
                               "no such job " + idText);
    }

    if (command == "STATUS") {
      return protocol::okLine(idText + " " + toString(status->state) + " " +
                              std::to_string(status->progressDone) + " " +
                              std::to_string(status->progressTotal));
    }
    if (command == "RESULT" || command == "REPORT") {
      const std::optional<engine::RunReport> report = server_.result(id);
      if (!report) {
        return protocol::errLine(
            protocol::kErrPending,
            "job " + idText + " is " + toString(status->state));
      }
      return protocol::okLine(
          idText + " " +
          (command == "REPORT" ? protocol::reportJson(*status, *report)
                               : protocol::jobJson(*status, *report)));
    }
    if (command == "CANCEL") {
      switch (server_.cancel(id)) {
        case CancelOutcome::QueuedCancelled:
          return protocol::okLine(idText + " cancelled");
        case CancelOutcome::RunningFlagged:
          return protocol::okLine(idText + " cancelling");
        case CancelOutcome::AlreadyTerminal:
          return protocol::okLine(idText + " already-terminal");
        case CancelOutcome::Unknown:
          break;
      }
      return protocol::errLine(protocol::kErrUnknownJob,
                               "no such job " + idText);
    }

    // WAIT: subscribe, stream events for this id until a terminal one.
    // Only this connection thread writes to the socket; the listener just
    // enqueues, so event ordering is preserved and writes never interleave.
    std::mutex eventMutex;
    std::condition_variable eventReady;
    std::deque<JobEvent> events;
    const std::uint64_t token =
        server_.subscribe([&, id](const JobEvent& event) {
          if (event.id != id) return;
          {
            const std::scoped_lock lock(eventMutex);
            events.push_back(event);
          }
          eventReady.notify_one();
        });

    // Replay FRAME events emitted before the subscription took effect — a
    // fast first frame can finish before the client's WAIT arrives, and a
    // WAIT on an already-finished sequence job should still stream one
    // event per frame. Merge by seq with anything the listener queued in
    // the meantime; equal seqs are the same event delivered both ways.
    {
      const std::vector<FrameMark> history = server_.frameHistory(id);
      if (!history.empty()) {
        std::deque<JobEvent> merged;
        for (const FrameMark& mark : history) {
          JobEvent event;
          event.type = JobEvent::Type::Frame;
          event.id = id;
          event.done = mark.frame;
          event.total = mark.total;
          event.seq = mark.seq;
          merged.push_back(event);
        }
        const std::scoped_lock lock(eventMutex);
        for (const JobEvent& live : events) {
          const auto pos = std::lower_bound(
              merged.begin(), merged.end(), live.seq,
              [](const JobEvent& e, std::uint64_t seq) { return e.seq < seq; });
          if (pos != merged.end() && pos->seq == live.seq) continue;
          merged.insert(pos, live);
        }
        events = std::move(merged);
      }
    }

    std::string finalState;
    bool vanished = false;  // pruned from retention while we waited
    // The job may already be terminal (subscribe raced the finish): emit
    // the synthetic terminal event from its recorded state.
    int lastDecile = -1;
    while (finalState.empty() && !stopping_.load()) {
      const std::optional<JobStatus> now = server_.status(id);
      if (!now) {
        vanished = true;
        break;
      }
      if (isTerminal(now->state)) {
        std::unique_lock lock(eventMutex);
        if (events.empty()) {
          JobEvent event;
          event.id = id;
          event.type = now->state == JobState::Done ? JobEvent::Type::Done
                       : now->state == JobState::Failed
                           ? JobEvent::Type::Failed
                           : JobEvent::Type::Cancelled;
          // Continue the job's event numbering so even the synthetic
          // terminal line keeps the stream monotonic for this client.
          event.seq = server_.nextEventSeq(id);
          events.push_back(event);
        }
      }
      std::unique_lock lock(eventMutex);
      eventReady.wait_for(lock, std::chrono::milliseconds(kPollMillis),
                          [&] { return !events.empty(); });
      while (!events.empty()) {
        const JobEvent event = events.front();
        events.pop_front();
        if (event.type == JobEvent::Type::Progress) {
          // Throttle the stream to decile changes; strategies may beat far
          // more often than a client wants to read.
          const int decile =
              event.total == 0
                  ? -1
                  : static_cast<int>(10 * event.done / event.total);
          if (decile == lastDecile) continue;
          lastDecile = decile;
        }
        lock.unlock();
        const bool ok = sendLine(fd, protocol::eventLine(event));
        lock.lock();
        if (!ok) {
          keepOpen = false;
          break;
        }
        if (event.type == JobEvent::Type::Done ||
            event.type == JobEvent::Type::Failed ||
            event.type == JobEvent::Type::Cancelled) {
          finalState = event.type == JobEvent::Type::Done     ? "done"
                       : event.type == JobEvent::Type::Failed ? "failed"
                                                              : "cancelled";
          break;
        }
      }
      if (!keepOpen) break;
    }
    server_.unsubscribe(token);
    if (vanished) {
      return protocol::errLine(protocol::kErrUnknownJob,
                               "job " + idText + " no longer retained");
    }
    if (!keepOpen || finalState.empty()) return "";
    return protocol::okLine(idText + " " + finalState);
  }

  if (command == "STATS") {
    return protocol::okLine(protocol::statsJson(server_.stats()));
  }

  if (command == "METRICS") {
    // Byte-framed like UPLOAD in reverse: `OK <nbytes>` then exactly
    // nbytes of Prometheus text exposition, so line-oriented clients can
    // skip the body while scrapers read it verbatim (docs/PROTOCOL.md).
    const std::string body = obs::Registry::global().renderPrometheus();
    if (!sendLine(fd, protocol::okLine(std::to_string(body.size()))) ||
        !sendAll(fd, body)) {
      keepOpen = false;
    }
    return "";
  }

  if (command == "SHUTDOWN") {
    keepOpen = false;
    if (!shutdownFired_.exchange(true) && onShutdown_) onShutdown_();
    return protocol::okLine("draining");
  }

  return protocol::errLine(protocol::kErrBadRequest,
                           "unknown command '" + command + "'");
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::~Client() { close(); }

void Client::connect(const std::string& host, std::uint16_t port,
                     double readTimeoutSeconds) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ProtocolError(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw ProtocolError("invalid host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    close();
    throw ProtocolError("cannot connect to " + host + ":" +
                        std::to_string(port) + ": " + reason);
  }
  if (readTimeoutSeconds > 0.0) {
    setRecvTimeout(fd_, std::lround(readTimeoutSeconds * 1000.0));
  }
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void Client::send(const std::string& line) {
  if (fd_ < 0) throw ProtocolError("not connected");
  if (!sendLine(fd_, line)) {
    throw ProtocolError("send failed: " + std::string(std::strerror(errno)));
  }
}

std::string Client::readLine() {
  if (fd_ < 0) throw ProtocolError("not connected");
  char chunk[4096];
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) throw ProtocolError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ProtocolError("timed out waiting for a reply");
      }
      throw ProtocolError("recv failed: " +
                          std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::request(const std::string& line) {
  send(line);
  return readLine();
}

std::uint64_t Client::submit(const std::string& jobLine) {
  const std::string reply = request("SUBMIT " + jobLine);
  std::istringstream tokens(reply);
  std::string status, idText;
  tokens >> status >> idText;
  std::uint64_t id = 0;
  if (status != "OK" || !parseId(idText, id)) {
    throw ProtocolError("SUBMIT rejected: " + reply);
  }
  return id;
}

std::string Client::upload(const std::string& id, const img::ImageU8& image,
                           bool oneshot) {
  return uploadFrame(id, image.width(), image.height(),
                     image.pixels().data(), image.pixelCount(), oneshot);
}

std::string Client::upload(const std::string& id, const img::ImageF& image,
                           bool oneshot) {
  return uploadFrame(id, image.width(), image.height(),
                     image.pixels().data(),
                     image.pixelCount() * sizeof(float), oneshot);
}

std::string Client::uploadFrame(const std::string& id, int width, int height,
                                const void* data, std::size_t nbytes,
                                bool oneshot) {
  if (fd_ < 0) throw ProtocolError("not connected");
  if (id.empty() || id.find_first_of(" \t\r\n") != std::string::npos) {
    throw ProtocolError("upload id must be non-empty without whitespace, "
                        "got '" +
                        id + "'");
  }
  std::string frame = "UPLOAD " + id + " " + std::to_string(width) + " " +
                      std::to_string(height) + " " + std::to_string(nbytes) +
                      (oneshot ? " oneshot" : "") + "\n";
  frame.append(static_cast<const char*>(data), nbytes);
  if (!sendAll(fd_, frame)) {
    throw ProtocolError("send failed: " + std::string(std::strerror(errno)));
  }
  const std::string reply = readLine();
  std::istringstream tokens(reply);
  std::string status, replyId, hash;
  tokens >> status >> replyId >> hash;
  if (status != "OK" || replyId != id || hash.size() != 16) {
    throw ProtocolError("UPLOAD rejected: " + reply);
  }
  return hash;
}

std::string Client::metrics() {
  const std::string header = request("METRICS");
  std::istringstream tokens(header);
  std::string status, sizeText;
  tokens >> status >> sizeText;
  std::uint64_t nbytes = 0;
  if (status != "OK" || !parseId(sizeText, nbytes)) {
    throw ProtocolError("METRICS failed: " + header);
  }
  std::string body;
  body.reserve(static_cast<std::size_t>(nbytes));
  char chunk[4096];
  while (body.size() < nbytes) {
    if (!buffer_.empty()) {
      const std::size_t take = std::min<std::size_t>(
          static_cast<std::size_t>(nbytes) - body.size(), buffer_.size());
      body.append(buffer_, 0, take);
      buffer_.erase(0, take);
      continue;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      throw ProtocolError("server closed mid-METRICS body");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ProtocolError("timed out reading the METRICS body");
      }
      throw ProtocolError("recv failed: " +
                          std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  return body;
}

std::string Client::report(std::uint64_t id) {
  const std::string reply = request("REPORT " + std::to_string(id));
  const std::string prefix = "OK " + std::to_string(id) + " ";
  if (reply.rfind(prefix, 0) != 0) {
    throw ProtocolError("REPORT failed: " + reply);
  }
  return reply.substr(prefix.size());
}

std::string Client::wait(
    std::uint64_t id, const std::function<void(const std::string&)>& onEvent) {
  send("WAIT " + std::to_string(id));
  while (true) {
    const std::string line = readLine();
    if (line.rfind("EVENT ", 0) == 0) {
      if (onEvent) onEvent(line);
      continue;
    }
    std::istringstream tokens(line);
    std::string status, idText, state;
    tokens >> status >> idText >> state;
    if (status != "OK") throw ProtocolError("WAIT failed: " + line);
    return state;
  }
}

}  // namespace mcmcpar::serve
