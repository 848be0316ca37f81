#include "spans.h"

#include <fstream>

#include "workloads.h"

namespace centbench {

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(std::string name, int parent, uint32_t run) {
  const double now = NowUs();
  return Add(std::move(name), now, now, parent, run);
}

void SpanRecorder::End(int id, uint64_t calls) {
  spans_[id].end_us = NowUs();
  spans_[id].calls = calls;
}

int SpanRecorder::Add(std::string name, double start_us, double end_us, int parent,
                      uint32_t run, uint64_t calls) {
  spans_.push_back({std::move(name), start_us, end_us, parent, run, calls});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::AddProfile(const centsim::SchedulerProfiler& profiler, double epoch_us,
                              int parent, uint32_t run) {
  for (const auto& s : profiler.spans()) {
    const double start = epoch_us + static_cast<double>(s.wall_start_ns) * 1e-3;
    Add(s.category, start, start + static_cast<double>(s.wall_ns) * 1e-3, parent, run);
  }
}

void SpanRecorder::NameRun(uint32_t run, std::string name) {
  run_names_.emplace_back(run, std::move(name));
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };
  for (const auto& [run, name] : run_names_) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << run
        << ",\"args\":{\"name\":" << Quote(name) << "}}";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    sep();
    out << "{\"name\":" << Quote(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
        << ",\"ts\":" << Num(s.start_us) << ",\"dur\":" << Num(s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"calls\":" << s.calls
        << "}}";
  }
  out << "]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace centbench
