#include "src/snapshot/timer_table.h"

#include <algorithm>

namespace centsim {

void TimerTable::Register(uint64_t tag, RearmFn fn) {
  for (auto& [existing, cb] : rearm_) {
    if (existing == tag) {
      cb = std::move(fn);
      return;
    }
  }
  rearm_.emplace_back(tag, std::move(fn));
}

bool TimerTable::Cancel(EventId id) {
  if (!sched_.Cancel(id)) {
    return false;
  }
  if (track_) {
    // Cancel succeeded, so `id` was live until this call — its slot note is
    // current by construction (NoteEvent wrote it when `id` was created and
    // no later event can have reused the slot while `id` lived).
    const uint32_t slot = EventPool::SlotOf(id);
    ReleaseTicket(ticket_by_slot_[slot] - 1);
  }
  return true;
}

std::vector<TimerRecord> TimerTable::Save() const {
  std::vector<TimerRecord> records;
  records.reserve(live_);
  for (const Entry& e : entries_) {
    if (e.live) {
      records.push_back(e.rec);
    }
  }
  std::sort(records.begin(), records.end(), [](const TimerRecord& a, const TimerRecord& b) {
    if (a.at_us != b.at_us) {
      return a.at_us < b.at_us;
    }
    return a.seq < b.seq;
  });
  return records;
}

size_t TimerTable::Restore(const std::vector<TimerRecord>& records) {
  size_t unregistered = 0;
  for (const TimerRecord& rec : records) {
    const RearmFn* fn = nullptr;
    for (const auto& [tag, cb] : rearm_) {
      if (tag == rec.tag) {
        fn = &cb;
        break;
      }
    }
    if (fn == nullptr) {
      ++unregistered;
      continue;
    }
    (*fn)(rec);
  }
  return unregistered;
}

void TimerTable::Encode(const std::vector<TimerRecord>& records, ByteWriter& w) {
  w.U64(records.size());
  for (const TimerRecord& rec : records) {
    w.U64(rec.tag);
    w.I64(rec.at_us);
    w.U64(rec.seq);
    w.U64(rec.a);
    w.U64(rec.b);
    w.F64(rec.x);
  }
}

std::vector<TimerRecord> TimerTable::Decode(ByteReader& r) {
  const uint64_t count = r.U64();
  // 48 bytes per record; clamp against the stream before allocating.
  if (!r.ok() || count > r.remaining() / 48) {
    r.Fail();
    return {};
  }
  std::vector<TimerRecord> records(count);
  for (TimerRecord& rec : records) {
    rec.tag = r.U64();
    rec.at_us = r.I64();
    rec.seq = r.U64();
    rec.a = r.U64();
    rec.b = r.U64();
    rec.x = r.F64();
  }
  return records;
}

uint32_t TimerTable::AcquireTicket() {
  if (free_.empty()) {
    entries_.emplace_back();
    free_.push_back(static_cast<uint32_t>(entries_.size() - 1));
  }
  const uint32_t ticket = free_.back();
  free_.pop_back();
  return ticket;
}

void TimerTable::ReleaseTicket(uint32_t ticket) {
  Entry& e = entries_[ticket];
  e.live = false;
  free_.push_back(ticket);
  --live_;
}

void TimerTable::NoteEvent(EventId id, uint32_t ticket) {
  const uint32_t slot = EventPool::SlotOf(id);
  if (slot >= ticket_by_slot_.size()) {
    ticket_by_slot_.resize(slot + 1, 0);
  }
  ticket_by_slot_[slot] = ticket + 1;
  ++live_;
}

}  // namespace centsim
