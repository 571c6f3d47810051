#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace mcmcpar::serve {

/// Client-side failure of the serve protocol (connection refused, EOF,
/// or an ERR reply surfaced through Client's convenience helpers).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The TCP front-end: newline-delimited commands over 127.0.0.1, one
/// handler thread per connection, translated into Server calls.
///
/// Commands (normative spec with the full grammar and a worked transcript:
/// docs/PROTOCOL.md):
///   SUBMIT <job line>   -> OK <id>
///   UPLOAD <id> <w> <h> <nbytes> [oneshot]
///                       -> binary frame: <nbytes> raw payload bytes follow
///                          the newline; reply OK <id> <hash> — the image
///                          is interned by content hash and addressable as
///                          `<id> ... @image=inline` on this connection
///   STATUS <id>         -> OK <id> <state> <done> <total>
///   RESULT <id>         -> OK <id> <json>
///   REPORT <id>         -> OK <id> <json + circles_detail> (shard merges)
///   CANCEL <id>         -> OK <id> cancelled|cancelling|already-terminal
///   WAIT <id>           -> EVENT lines until terminal, then OK <id> <state>
///   STATS               -> OK <json>
///   METRICS             -> OK <nbytes>, then <nbytes> raw bytes of
///                          Prometheus text exposition (obs::Registry)
///   PING                -> OK pong
///   SHUTDOWN            -> OK draining (and fires the onShutdown callback)
/// Failures reply `ERR <code> <message>` (QUEUE_FULL when bounded
/// admission rejects a SUBMIT; BAD_FRAME/TOO_LARGE reject an UPLOAD;
/// LINE_TOO_LONG, followed by a close, when a command line passes 1 MiB
/// without its newline).
class SocketFrontend {
 public:
  /// Bind 127.0.0.1:`port` (0 = pick an ephemeral port) and start
  /// accepting. `onShutdown` is invoked (once) from a connection thread
  /// when a client issues SHUTDOWN; it must not block — typically it wakes
  /// the main loop, which then calls Server::shutdown and stop().
  /// Throws ProtocolError when the socket cannot be bound.
  SocketFrontend(Server& server, std::uint16_t port,
                 std::function<void()> onShutdown = {});
  ~SocketFrontend();

  SocketFrontend(const SocketFrontend&) = delete;
  SocketFrontend& operator=(const SocketFrontend&) = delete;

  /// The bound port (the resolved one when constructed with 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Close the listener, disconnect clients and join handler threads.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  /// Per-connection state: the UPLOAD namespace. Uploads are addressable
  /// only from the connection that sent them and die with it — jobs that
  /// consumed one keep the image pinned through the server instead. The
  /// namespace is bounded (oldest dropped) so an id-churning client cannot
  /// grow server memory.
  struct ConnectionState {
    std::map<std::string, std::shared_ptr<const img::ImageF>> uploads;
    std::vector<std::string> uploadOrder;  ///< insertion order, for the cap
  };

  void acceptLoop();
  void handleConnection(int fd);
  [[nodiscard]] std::string dispatch(const std::string& line, int fd,
                                     ConnectionState& state, bool& keepOpen);
  /// Consume and validate one binary frame (the UPLOAD body follows the
  /// header line). `buffer` holds bytes already received past the header.
  [[nodiscard]] std::string handleUpload(const std::string& line, int fd,
                                         std::string& buffer,
                                         ConnectionState& state,
                                         bool& keepOpen);

  /// One live (or finished-but-unreaped) connection handler.
  struct Connection {
    std::atomic<bool> done{false};
    std::jthread thread;  ///< last member: joins before `done` tears down
  };

  Server& server_;
  std::function<void()> onShutdown_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdownFired_{false};
  std::atomic<int> listenFd_{-1};  ///< stop() closes it under acceptLoop
  std::uint16_t port_ = 0;
  // Finished handlers are reaped on the next accept (a long-lived server
  // would otherwise accumulate dead thread handles); stop() joins the rest.
  std::mutex connectionsMutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::jthread acceptor_;  ///< last member: joins before the rest tears down
};

/// A tiny blocking client of the serve socket protocol — what
/// `mcmcpar_submit`, the tests and the benches use.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to 127.0.0.1:`port` (or `host`). Throws ProtocolError.
  /// `readTimeoutSeconds` bounds every readLine so a wedged server fails
  /// loudly instead of hanging the caller (0 = wait forever).
  void connect(const std::string& host, std::uint16_t port,
               double readTimeoutSeconds = 120.0);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Send one command line ('\n' appended).
  void send(const std::string& line);

  /// Read the next reply line (without the newline). Throws ProtocolError
  /// on EOF or timeout.
  [[nodiscard]] std::string readLine();

  /// send() + readLine() for single-reply commands.
  [[nodiscard]] std::string request(const std::string& line);

  /// SUBMIT a job line, returning the admitted id. Throws ProtocolError on
  /// an ERR reply (message carries the server's code and text).
  [[nodiscard]] std::uint64_t submit(const std::string& jobLine);

  /// UPLOAD a binary image frame under `id` (no whitespace), making it
  /// addressable as `<id> ... @image=inline` on this connection. The 8-bit
  /// overload sends gray8 (nbytes = w*h); the float overload sends exact
  /// float32 pixels (nbytes = 4*w*h, native byte order — coordinator and
  /// endpoint must share endianness). `oneshot` asks the server not to
  /// insert the frame into its image cache. Returns the server's content
  /// hash (16 hex digits); throws ProtocolError on an ERR reply.
  std::string upload(const std::string& id, const img::ImageU8& image,
                     bool oneshot = false);
  std::string upload(const std::string& id, const img::ImageF& image,
                     bool oneshot = false);

  /// WAIT for a job, forwarding EVENT lines to `onEvent` (may be null).
  /// Returns the final state word of the `OK <id> <state>` terminator.
  [[nodiscard]] std::string wait(
      std::uint64_t id,
      const std::function<void(const std::string&)>& onEvent = {});

  /// REPORT a terminal job: the full result JSON including the detected
  /// circle list (`circles_detail`). Throws ProtocolError on an ERR reply.
  [[nodiscard]] std::string report(std::uint64_t id);

  /// METRICS: the server's Prometheus text exposition body (the `OK
  /// <nbytes>` framing line is consumed). Throws ProtocolError on ERR.
  [[nodiscard]] std::string metrics();

 private:
  std::string uploadFrame(const std::string& id, int width, int height,
                          const void* data, std::size_t nbytes, bool oneshot);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace mcmcpar::serve
