#include "serve/protocol.hpp"

#include <cstdio>
#include <sstream>
#include <variant>

namespace mcmcpar::serve::protocol {

namespace {

/// Shortest round-trippable formatting for JSON numbers (printf %g keeps
/// the payloads compact; full precision is not needed for latencies).
std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Exact round-trip formatting for values another process computes with:
/// circle coordinates feed the shard coordinator's stitcher, so a remote
/// tile must reproduce the local backend bit-for-bit.
std::string numExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string jobJson(const JobStatus& status,
                    const engine::RunReport& report) {
  std::ostringstream out;
  out << "{\"id\": " << status.id                                      //
      << ", \"label\": \"" << jsonEscape(status.label) << "\""         //
      << ", \"image\": \"" << jsonEscape(status.image) << "\""         //
      << ", \"strategy\": \"" << jsonEscape(status.strategy) << "\""   //
      << ", \"state\": \"" << toString(status.state) << "\""           //
      << ", \"latency_seconds\": " << num(status.latencySeconds)       //
      << ", \"wall_seconds\": " << num(report.wallSeconds)             //
      << ", \"iterations\": " << report.iterations                     //
      << ", \"acceptance\": " << num(report.acceptanceRate)            //
      << ", \"circles\": " << report.circles.size()                    //
      << ", \"log_posterior\": " << num(report.logPosterior)           //
      << ", \"threads_used\": " << report.threadsUsed                  //
      << ", \"cancelled\": " << (report.cancelled ? "true" : "false")  //
      << ", \"client\": \"" << jsonEscape(status.client) << "\""       //
      << ", \"queue_seconds\": " << num(status.queueSeconds)           //
      << ", \"predicted_cost_seconds\": "                              //
      << num(status.predictedCostSeconds)                              //
      << ", \"error\": \"" << jsonEscape(status.error) << "\"}";
  return out.str();
}

std::string reportJson(const JobStatus& status,
                       const engine::RunReport& report) {
  std::string out = jobJson(status, report);
  out.pop_back();  // reopen the object to append the circle detail
  out += ", \"circles_detail\": [";
  for (std::size_t i = 0; i < report.circles.size(); ++i) {
    const model::Circle& c = report.circles[i];
    if (i != 0) out += ", ";
    out += '[';
    out += numExact(c.x);
    out += ", ";
    out += numExact(c.y);
    out += ", ";
    out += numExact(c.r);
    out += ']';
  }
  out += ']';
  if (const auto* seq = std::get_if<stream::StreamReport>(&report.extras)) {
    std::ostringstream extra;
    extra << ", \"frames\": [";
    for (std::size_t i = 0; i < seq->perFrame.size(); ++i) {
      const stream::FrameResult& frame = seq->perFrame[i];
      if (i != 0) extra << ", ";
      extra << "{\"frame\": " << frame.index                        //
            << ", \"label\": \"" << jsonEscape(frame.label) << "\""  //
            << ", \"iterations\": " << frame.iterations              //
            << ", \"circles\": " << frame.circles                    //
            << ", \"carried\": " << frame.carried                    //
            << ", \"log_posterior\": " << num(frame.logPosterior)    //
            << ", \"wall_seconds\": " << num(frame.wallSeconds) << "}";
    }
    extra << "], \"tracks\": [";
    for (std::size_t i = 0; i < seq->tracks.size(); ++i) {
      const stream::TrackSummary& track = seq->tracks[i];
      if (i != 0) extra << ", ";
      extra << '[' << track.id << ", " << track.firstFrame << ", "
            << track.lastFrame << ']';
    }
    extra << ']';
    out += extra.str();
  }
  out += '}';
  return out;
}

std::string statsJson(const ServerStats& stats) {
  std::ostringstream out;
  out << "{\"submitted\": " << stats.jobs.submitted                  //
      << ", \"queued\": " << stats.jobs.queued                       //
      << ", \"running\": " << stats.jobs.running                     //
      << ", \"done\": " << stats.jobs.done                           //
      << ", \"failed\": " << stats.jobs.failed                       //
      << ", \"cancelled\": " << stats.jobs.cancelled                 //
      << ", \"cache_hits\": " << stats.cache.hits                    //
      << ", \"cache_misses\": " << stats.cache.misses                //
      << ", \"cache_hit_rate\": " << num(stats.cache.hitRate())      //
      << ", \"cache_evictions\": " << stats.cache.evictions          //
      << ", \"cache_oneshot_bypasses\": " << stats.cache.oneshotBypasses  //
      << ", \"cache_interned\": " << stats.cache.interned            //
      << ", \"cache_entries\": " << stats.cache.entries              //
      << ", \"cache_bytes\": " << stats.cache.bytes                  //
      << ", \"thread_budget\": " << stats.threadBudget               //
      << ", \"budget_available\": " << stats.budgetAvailable         //
      << ", \"workers\": " << stats.workers                          //
      << ", \"uptime_seconds\": " << num(stats.uptimeSeconds)        //
      << ", \"draining\": " << (stats.draining ? "true" : "false")   //
      << ", \"clients\": {";
  for (std::size_t i = 0; i < stats.clients.size(); ++i) {
    const ClientStats& client = stats.clients[i];
    if (i != 0) out << ", ";
    out << "\"" << jsonEscape(client.client) << "\": {"      //
        << "\"weight\": " << client.weight                   //
        << ", \"submitted\": " << client.submitted           //
        << ", \"queued\": " << client.queued                 //
        << ", \"served\": " << client.served                 //
        << ", \"cost_queued\": " << num(client.costQueued)   //
        << ", \"cost_served\": " << num(client.costServed) << "}";
  }
  out << "}}";
  return out.str();
}

std::string okLine(const std::string& payload) {
  return payload.empty() ? "OK" : "OK " + payload;
}

std::string errLine(const std::string& code, const std::string& message) {
  return "ERR " + code + " " + message;
}

std::string eventLine(const JobEvent& event) {
  std::ostringstream out;
  out << "EVENT " << event.id << " " << toString(event.type);
  if (event.type == JobEvent::Type::Progress) {
    out << " " << event.done << " " << event.total;
  } else if (event.type == JobEvent::Type::Frame) {
    out << " frame=" << event.done << "/" << event.total;
  }
  out << " seq=" << event.seq;
  return out.str();
}

}  // namespace mcmcpar::serve::protocol
