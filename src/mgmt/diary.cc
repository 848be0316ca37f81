#include "src/mgmt/diary.h"

#include <algorithm>

namespace centsim {

ExperimentDiary ExperimentDiary::FromTrace(const TraceLog& trace) {
  ExperimentDiary diary;
  for (const auto& rec : trace.records()) {
    if (rec.level >= TraceLevel::kMaintenance) {
      diary.Append({rec.at, rec.level, rec.component, rec.message});
    }
  }
  return diary;
}

std::vector<DecadeSummary> ExperimentDiary::ByDecade() const {
  std::vector<DecadeSummary> out;
  for (const auto& e : entries_) {
    const uint32_t decade = static_cast<uint32_t>(e.at.ToYears() / 10.0);
    if (out.size() <= decade) {
      DecadeSummary blank;
      while (out.size() <= decade) {
        blank.decade = static_cast<uint32_t>(out.size());
        out.push_back(blank);
      }
    }
    switch (e.level) {
      case TraceLevel::kFailure:
        ++out[decade].failures;
        break;
      case TraceLevel::kMaintenance:
        ++out[decade].maintenance_actions;
        break;
      case TraceLevel::kWarning:
        ++out[decade].warnings;
        break;
      default:
        break;
    }
  }
  return out;
}

std::string ExperimentDiary::Render(size_t max_entries) const {
  std::string out;
  const size_t stride = entries_.size() > max_entries
                            ? (entries_.size() + max_entries - 1) / max_entries
                            : 1;
  for (size_t i = 0; i < entries_.size(); i += stride) {
    const auto& e = entries_[i];
    out.append("[").append(e.at.ToString()).append("] ").append(TraceLevelName(e.level));
    out.append(" ").append(e.component).append(": ").append(e.text).append("\n");
  }
  if (stride > 1) {
    out.append("(").append(std::to_string(entries_.size())).append(" entries total, 1-in-");
    out.append(std::to_string(stride)).append(" shown)\n");
  }
  return out;
}

}  // namespace centsim
