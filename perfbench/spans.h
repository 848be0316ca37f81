// In-memory spans recorded around the benchmark's own calls into the
// program, written once at exit as Chrome trace-event JSON (loads in
// Perfetto and chrome://tracing). Each span has a name, start, end, parent
// span and run; `run` is the trace's thread track, one per workload run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/profiler.h"

namespace centbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;       // Index of the enclosing span; -1 for a root.
    uint32_t run = 0;
    uint64_t calls = 1;    // Calls the span covers (probe loops).
  };

  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // Microseconds since the recorder was built.
  double NowUs() const;

  int Begin(std::string name, int parent, uint32_t run);
  void End(int id, uint64_t calls = 1);
  int Add(std::string name, double start_us, double end_us, int parent, uint32_t run,
          uint64_t calls = 1);
  // The profiler's timed event spans become children of `parent`;
  // `epoch_us` is NowUs() at the profiler's construction.
  void AddProfile(const centsim::SchedulerProfiler& profiler, double epoch_us, int parent,
                  uint32_t run);
  void NameRun(uint32_t run, std::string name);

  double Seconds(int id) const { return (spans_[id].end_us - spans_[id].start_us) * 1e-6; }

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::pair<uint32_t, std::string>> run_names_;
};

}  // namespace centbench

#endif  // PERFBENCH_SPANS_H_
