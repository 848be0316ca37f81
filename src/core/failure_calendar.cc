#include "src/core/failure_calendar.h"

namespace centsim {

FailureCalendar::FailureCalendar(DeviceFleet& fleet, SimTime horizon)
    : fleet_(fleet),
      buckets_(static_cast<size_t>(std::max<int64_t>(horizon.micros(), 0) / kBucketUs) + 2) {}

const FailureCalendar::Entry* FailureCalendar::NextInLaterBucket(SimTime limit) {
  for (;;) {
    std::vector<Entry>& bucket = buckets_[cur_];
    if (!sorted_) {
      std::sort(bucket.begin() + static_cast<std::ptrdiff_t>(pos_), bucket.end(),
                [](const Entry& a, const Entry& b) {
                  return a.at_us != b.at_us ? a.at_us < b.at_us : a.slot < b.slot;
                });
      sorted_ = true;
    }
    if (pos_ < bucket.size()) {
      return bucket[pos_].at_us <= limit.micros() ? &bucket[pos_] : nullptr;
    }
    // Spent: free it, and pass empty buckets up to the next non-empty one,
    // but never into one that starts after `limit`: this drain cannot
    // reach its entries, more may still arrive before the run does, and
    // the last bucket, past the horizon, stays unsorted.
    std::vector<Entry>().swap(bucket);
    pos_ = 0;
    while (cur_ + 1 < buckets_.size() &&
           static_cast<int64_t>(cur_ + 1) * kBucketUs <= limit.micros()) {
      ++cur_;
      if (!buckets_[cur_].empty()) {
        sorted_ = false;
        break;
      }
    }
    if (buckets_[cur_].empty()) {
      return nullptr;
    }
  }
}

void FailureCalendar::StampDeadlines() {
  for (size_t b = cur_; b < buckets_.size(); ++b) {
    for (size_t k = b == cur_ ? pos_ : 0; k < buckets_[b].size(); ++k) {
      const Entry& entry = buckets_[b][k];
      if (entry.generation == fleet_.unit_generation(entry.slot)) {
        fleet_.set_deadline(entry.slot, SimTime::Micros(entry.at_us));
      }
    }
  }
}

void FailureCalendar::ArmDeadlines() {
  for (uint32_t slot = 0; slot < fleet_.capacity(); ++slot) {
    if (fleet_.alive(slot)) {
      Arm(fleet_.deadline(slot), slot);
    }
  }
}

uint64_t FailureCalendar::pending() const {
  uint64_t n = 0;
  for (size_t b = cur_; b < buckets_.size(); ++b) {
    n += buckets_[b].size();
  }
  return n - pos_;
}

SimTime FailureCalendar::Earliest() const {
  int64_t earliest = INT64_MAX;
  for (size_t b = cur_; b < buckets_.size() && earliest == INT64_MAX; ++b) {
    for (size_t k = b == cur_ ? pos_ : 0; k < buckets_[b].size(); ++k) {
      earliest = std::min(earliest, buckets_[b][k].at_us);
    }
  }
  return SimTime::Micros(earliest);
}

}  // namespace centsim
