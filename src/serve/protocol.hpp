#pragma once

#include <cstdint>
#include <string>

#include "engine/engine.hpp"
#include "obs/trace.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"

/// Wire-format helpers of the serve job protocol. The normative
/// specification — command grammar, event stream, error codes, the JSON
/// result schema and the manifest grammar — lives in docs/PROTOCOL.md; the
/// server tests assert against the strings produced here.
namespace mcmcpar::serve::protocol {

/// Machine-readable error codes carried by `ERR <code> <message>` replies.
inline constexpr const char* kErrBadRequest = "BAD_REQUEST";
inline constexpr const char* kErrBadJob = "BAD_JOB";
inline constexpr const char* kErrUnknownJob = "UNKNOWN_JOB";
inline constexpr const char* kErrPending = "PENDING";
inline constexpr const char* kErrShuttingDown = "SHUTTING_DOWN";
inline constexpr const char* kErrQueueFull = "QUEUE_FULL";
/// Binary-frame rejections (UPLOAD): a frame whose decoded pixels exceed
/// the server's cache capacity (or whose declared size is insane) vs. a
/// malformed frame (bad header, zero-size, nbytes/dimension mismatch,
/// truncated payload).
inline constexpr const char* kErrTooLarge = "TOO_LARGE";
inline constexpr const char* kErrBadFrame = "BAD_FRAME";
/// A command line longer than the server's cap (docs/PROTOCOL.md); the
/// connection closes after this reply.
inline constexpr const char* kErrLineTooLong = "LINE_TOO_LONG";

/// JSON string escaping, shared with the tracer's writer.
using obs::jsonEscape;

/// One job's terminal outcome as single-line JSON — the RESULT payload and
/// one element of a watch-mode result file.
[[nodiscard]] std::string jobJson(const JobStatus& status,
                                  const engine::RunReport& report);

/// The REPORT payload: jobJson plus the full detected-circle list as
/// `"circles_detail": [[x, y, r], ...]` — what a shard coordinator needs to
/// stitch remote tiles back together. Sequence jobs additionally carry
/// `"frames": [...]` (per-frame iterations/circles/logP) and
/// `"tracks": [[id, first, last], ...]` from the cross-frame tracker.
[[nodiscard]] std::string reportJson(const JobStatus& status,
                                     const engine::RunReport& report);

/// Server counters as single-line JSON — the STATS payload.
[[nodiscard]] std::string statsJson(const ServerStats& stats);

/// `OK ...` / `ERR <code> <message>` reply lines.
[[nodiscard]] std::string okLine(const std::string& payload);
[[nodiscard]] std::string errLine(const std::string& code,
                                  const std::string& message);

/// Event stream lines (WAIT):
///   `EVENT <id> <TYPE> seq=<n>`                     lifecycle events
///   `EVENT <id> PROGRESS <done> <total> seq=<n>`    decile progress
///   `EVENT <id> FRAME frame=<k>/<count> seq=<n>`    one finished sequence
///                                                   frame (k is 0-based)
/// `seq` is per-job monotonic from 1; gaps are normal (throttling), a
/// non-increasing value means the transport dropped or reordered events.
[[nodiscard]] std::string eventLine(const JobEvent& event);

}  // namespace mcmcpar::serve::protocol
