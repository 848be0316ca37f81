#include "src/sim/trace.h"

namespace centsim {

const char* TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kDebug:
      return "DEBUG";
    case TraceLevel::kInfo:
      return "INFO";
    case TraceLevel::kMaintenance:
      return "MAINT";
    case TraceLevel::kWarning:
      return "WARN";
    case TraceLevel::kFailure:
      return "FAIL";
  }
  return "?";
}

std::string TraceRecord::ToString() const {
  std::string out = "[";
  out += at.ToString();
  out += "] ";
  out += TraceLevelName(level);
  out += " ";
  out += component;
  out += ": ";
  out += message;
  return out;
}

void TraceLog::Emit(SimTime at, TraceLevel level, std::string component, std::string message) {
  if (!ShouldEmit(level)) {
    return;
  }
  ++emitted_;
  TraceRecord rec{at, level, std::move(component), std::move(message)};
  for (const auto& sink : sinks_) {
    sink(rec);
  }
  if (retain_) {
    records_.push_back(std::move(rec));
  }
}

std::vector<TraceRecord> TraceLog::FilterAtLeast(TraceLevel level) const {
  std::vector<TraceRecord> out;
  for (const auto& rec : records_) {
    if (rec.level >= level) {
      out.push_back(rec);
    }
  }
  return out;
}

}  // namespace centsim
