// Byte codec for DeviceFleet::SlotState — shared by every fleet-backed
// driver's checkpoint chunks. 13 fields, 85 bytes per slot, encoded in
// declaration order — and the restore checks every reader makes of its
// barrier and of a slot's pending failure.

#ifndef SRC_CORE_FLEET_CODEC_H_
#define SRC_CORE_FLEET_CODEC_H_

#include <string>

#include "src/core/fleet.h"
#include "src/snapshot/bytes.h"

namespace centsim {

inline void EncodeFleetSlot(const DeviceFleet::SlotState& s, ByteWriter& w) {
  w.U8(s.alive);
  w.U32(s.handle_generation);
  w.U32(s.unit_generation);
  w.I64(s.deployed_at_us);
  w.I64(s.failed_at_us);
  w.I64(s.deadline_us);
  w.U32(s.covering);
  w.F64(s.charge_j);
  w.F64(s.capacity_now_j);
  w.I64(s.energy_last_update_us);
  w.I64(s.energy_last_advance_us);
  w.U64(s.tx_granted);
  w.U64(s.tx_denied);
}

inline DeviceFleet::SlotState DecodeFleetSlot(ByteReader& r) {
  DeviceFleet::SlotState s;
  s.alive = r.U8();
  s.handle_generation = r.U32();
  s.unit_generation = r.U32();
  s.deployed_at_us = r.I64();
  s.failed_at_us = r.I64();
  s.deadline_us = r.I64();
  s.covering = r.U32();
  s.charge_j = r.F64();
  s.capacity_now_j = r.F64();
  s.energy_last_update_us = r.I64();
  s.energy_last_advance_us = r.I64();
  s.tx_granted = r.U64();
  s.tx_denied = r.U64();
  return s;
}

// A checkpoint is cut inside the run it resumes, at a barrier in [0,
// horizon). Empty when `barrier` is, else an error naming it.
inline std::string CheckRestoredBarrier(SimTime barrier, SimTime horizon) {
  if (barrier >= SimTime() && barrier < horizon) {
    return "";
  }
  return "barrier at " + std::to_string(barrier.micros()) + " us is outside the run, which ends at " +
         std::to_string(horizon.micros()) + " us";
}

// An alive slot's deadline is its unit's pending failure, which a run
// drained to the checkpoint's `barrier` cannot have left before it. Empty
// when the slot of `site` passes, else an error naming the site.
inline std::string CheckRestoredDeadline(uint64_t site, const DeviceFleet::SlotState& s,
                                         SimTime barrier) {
  if (s.alive == 0 || s.deadline_us >= barrier.micros()) {
    return "";
  }
  return "site " + std::to_string(site) + " is alive with its pending failure at " +
         std::to_string(s.deadline_us) + " us, before the barrier at " +
         std::to_string(barrier.micros()) + " us";
}

}  // namespace centsim

#endif  // SRC_CORE_FLEET_CODEC_H_
