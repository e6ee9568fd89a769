#include "src/obs/trace.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/string_util.h"

namespace keystone {
namespace obs {

namespace {

// String escaping and number rendering come from the shared
// common/string_util JSON helpers (JsonEscape handles \r/\b/\f and negative
// chars correctly, which the local copy this replaced did not).

void AppendCostArgs(std::ostringstream* os, const char* prefix,
                    const CostProfile& cost) {
  *os << "\"" << prefix << "_flops\":" << JsonNumber(cost.flops) << ",\""
      << prefix << "_bytes\":" << JsonNumber(cost.bytes) << ",\"" << prefix
      << "_network\":" << JsonNumber(cost.network) << ",\"" << prefix
      << "_rounds\":" << JsonNumber(cost.rounds);
}

}  // namespace

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kProfileSmall:
      return "profile-small";
    case TracePhase::kProfileLarge:
      return "profile-large";
    case TracePhase::kTrain:
      return "train";
    case TracePhase::kEval:
      return "eval";
    case TracePhase::kServe:
      return "serve";
  }
  return "?";
}

void TraceRecorder::Record(TraceSpan span) {
  MutexLock lock(&mu_);
  double& cursor = phase_cursor_[span.phase];
  span_start_.push_back(cursor);
  cursor += span.virtual_seconds;
  spans_.push_back(std::move(span));
}

size_t TraceRecorder::NumSpans() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

std::vector<TraceSpan> TraceRecorder::Spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

void TraceRecorder::Clear() {
  MutexLock lock(&mu_);
  spans_.clear();
  span_start_.clear();
  phase_cursor_.clear();
}

std::string TraceRecorder::ChromeTraceJson() const {
  MutexLock lock(&mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Name the process and one "thread" per phase.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"virtual cluster\"}}";
  for (int t = 0; t < kNumTracePhases; ++t) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
       << ",\"args\":{\"name\":\""
       << TracePhaseName(static_cast<TracePhase>(t)) << "\"}}";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    // Complete ("X") events on the virtual timeline, microsecond units.
    // Zero-duration spans get a 1us floor so they stay visible.
    const double ts_us = span_start_[i] * 1e6;
    const double dur_us = std::max(1.0, s.virtual_seconds * 1e6);
    os << ",{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
       << TracePhaseName(s.phase) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << static_cast<int>(s.phase) << ",\"ts\":" << JsonNumber(ts_us)
       << ",\"dur\":" << JsonNumber(dur_us) << ",\"args\":{";
    os << "\"node_id\":" << s.node_id << ",\"kind\":\"" << JsonEscape(s.kind)
       << "\",\"physical\":\"" << JsonEscape(s.physical)
       << "\",\"partitions\":" << s.partitions
       << ",\"records_in\":" << s.records_in
       << ",\"wall_ms\":" << JsonNumber(s.wall_seconds * 1e3)
       << ",\"virtual_s\":" << JsonNumber(s.virtual_seconds) << ",";
    AppendCostArgs(&os, "predicted", s.predicted);
    if (s.observed.has_value()) {
      os << ",";
      AppendCostArgs(&os, "observed", *s.observed);
    }
    os << ",\"used_observed\":" << (s.used_observed ? "true" : "false")
       << ",\"cached\":" << (s.cached ? "true" : "false")
       << ",\"synthetic\":" << (s.synthetic ? "true" : "false")
       << ",\"output_bytes\":" << JsonNumber(s.output_bytes);
    // Only skipped fits carry the flag, so other spans keep their bytes.
    if (s.fit_skipped) os << ",\"fit_skipped\":true";
    if (s.fault_attempts > 0) {
      // Only faulted spans carry recovery args; fault-free traces stay
      // byte-identical to builds without the fault layer.
      os << ",\"fault_attempts\":" << s.fault_attempts
         << ",\"recovery_s\":" << JsonNumber(s.recovery_seconds)
         << ",\"cache_recovery\":" << (s.cache_recovery ? "true" : "false");
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

std::string TraceRecorder::PlanReport() const {
  const auto spans = Spans();
  std::ostringstream os;
  os << "ExecutionTrace{" << spans.size() << " spans}\n";
  for (const TraceSpan& s : spans) {
    os << "  [" << TracePhaseName(s.phase) << "] #" << s.node_id << " "
       << s.name;
    if (!s.physical.empty()) os << " -> " << s.physical;
    os << " (" << s.kind << ") in=" << s.records_in << " rec/"
       << s.partitions << " part, wall=" << HumanSeconds(s.wall_seconds)
       << ", virtual=" << HumanSeconds(s.virtual_seconds);
    if (s.cached) os << " [cached " << HumanBytes(s.output_bytes) << "]";
    if (s.synthetic) os << " [synthetic]";
    if (s.fit_skipped) os << " [fit skipped]";
    if (s.fault_attempts > 0) {
      os << " [" << s.fault_attempts << " attempts, recovery "
         << HumanSeconds(s.recovery_seconds)
         << (s.cache_recovery ? ", from cache" : "") << "]";
    }
    os << "\n    predicted=" << s.predicted.ToString();
    if (s.observed.has_value()) {
      os << "\n    observed =" << s.observed->ToString()
         << (s.used_observed ? " (charged)" : " (model charged)");
    }
    os << "\n";
  }
  return os.str();
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // NOLINT: leaked singleton
  return *recorder;
}

}  // namespace obs
}  // namespace keystone
