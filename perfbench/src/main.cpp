// perfbench_ladder: runs one workload of the ladder benchmark in this
// process and prints its result as one JSON line (the last line of
// stdout). perfbench/run.py is the command that drives it.
//
//   perfbench_ladder --workload chain|served|fanout --seed N --seconds S
//                    [--trace 0|1] [--trace-out FILE]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host_probe.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics(const std::map<std::string, Metric>& map) {
  std::string out = "{";
  for (const auto& [name, metric] : map) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_ladder --workload chain|served|fanout "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      options.traceOut = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  WorkloadResult (*run)(const RunOptions&, SpanLog&) = nullptr;
  if (options.workload == "chain") run = runChain;
  if (options.workload == "served") run = runServed;
  if (options.workload == "fanout") run = runFanout;
  if (run == nullptr) return usage("unknown workload");

  try {
    const HostProbe before = probeHost();
    SpanLog spans(options.trace);
    WorkloadResult result = run(options, spans);
    const HostProbe after = probeHost();

    if (options.trace) {
      const std::vector<Span> recorded = spans.snapshot();
      // Self time per attempted job, so a short run and a long run of the
      // same workload report the same quantity.
      const double jobs = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
      for (const auto& [layer, seconds] : selfTimeByLayer(recorded)) {
        result.layer("self_s." + layer, seconds / jobs, "s");
      }
      result.layer("host.scaling_ratio", std::min(before.scaling, after.scaling), "ratio");
      if (!options.traceOut.empty()) writeChromeTrace(options.traceOut, recorded);
    }
    for (const std::string& failure : result.checkFailures) {
      std::printf("check failed: %s\n", failure.c_str());
    }

    std::string checks = "[";
    for (const std::string& failure : result.checkFailures) {
      checks += (checks.size() > 1 ? ", " : "") + quoted(failure);
    }
    checks += "]";
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"attempted\": %llu, \"failed\": "
        "%llu, \"checks\": %s, \"tail_percentile\": %s, \"latency_samples\": "
        "%zu, \"wall_s\": %s, \"host\": {\"threads\": %u, \"scaling_start\": "
        "%s, \"scaling_end\": %s}, \"e2e\": %s, \"layers\": %s}\n",
        quoted(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed),
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed), checks.c_str(),
        number(result.tailPercentile).c_str(), result.latencySamples,
        number(result.wallSeconds).c_str(), before.threads,
        number(before.scaling).c_str(), number(after.scaling).c_str(),
        metrics(result.endToEnd).c_str(), metrics(result.layers).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ladder: %s\n", e.what());
    return 1;
  }
  return 0;
}
