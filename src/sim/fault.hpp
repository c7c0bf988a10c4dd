// Scripted fault injection.
//
// A FaultScript schedules crash/recover/stall/partition/heal plus
// drop/delay/duplicate/corrupt datagram rules and hardware-clock
// step/drift faults at absolute simulation times, turning both the paper's
// §4 failure scenarios (single crash, lost decision message, multiple
// failures, false suspicion) and the torture engine's randomized schedules
// into deterministic, replayable experiments.
#pragma once

#include <vector>

#include "sim/network.hpp"
#include "sim/process_service.hpp"
#include "sim/simulator.hpp"

namespace tw::sim {

class FaultScript {
 public:
  FaultScript(Simulator& simulator, ProcessService& procs,
              DatagramNetwork& net)
      : sim_(simulator), procs_(procs), net_(net) {}

  FaultScript& crash_at(SimTime t, ProcessId p) {
    sim_.at(t, [this, p] { procs_.crash(p); });
    return *this;
  }

  FaultScript& recover_at(SimTime t, ProcessId p) {
    sim_.at(t, [this, p] { procs_.recover(p); });
    return *this;
  }

  FaultScript& stall_at(SimTime t, ProcessId p, Duration d) {
    sim_.at(t, [this, p, d] { procs_.stall(p, d); });
    return *this;
  }

  /// Slow receiver: p drains incoming datagrams at `pct` percent of the
  /// normal service rate for `dur` (overloaded, not dead — its timers and
  /// outgoing traffic stay timely). See ProcessService::slow_receiver.
  FaultScript& slow_receiver_at(SimTime t, ProcessId p, int pct,
                                Duration dur) {
    sim_.at(t, [this, p, pct, dur] { procs_.slow_receiver(p, pct, dur); });
    return *this;
  }

  FaultScript& partition_at(SimTime t, std::vector<util::ProcessSet> groups) {
    sim_.at(t, [this, groups = std::move(groups)] {
      net_.set_partition(groups);
    });
    return *this;
  }

  FaultScript& heal_at(SimTime t) {
    sim_.at(t, [this] { net_.heal(); });
    return *this;
  }

  /// Flapping partition: the same cut opens and heals `cycles` times,
  /// one full open+heal per `period`. Each heal is a fresh merge — the
  /// membership layer must survive repeated lineage reconciliation with
  /// barely any stable time between cuts.
  FaultScript& flap_at(SimTime t, std::vector<util::ProcessSet> groups,
                       int cycles, Duration period) {
    for (int i = 0; i < cycles; ++i) {
      const SimTime cut = t + static_cast<SimTime>(i) * period;
      partition_at(cut, groups);
      heal_at(cut + period / 2);
    }
    return *this;
  }

  /// Asymmetric (one-way) cut: p can still send towards `to`, but hears
  /// nothing back from them (`inbound`), or the reverse (`!inbound`).
  /// Exercises the half-open failure mode where suspicion is one-sided.
  FaultScript& oneway_at(SimTime t, ProcessId p, util::ProcessSet to,
                         bool inbound) {
    sim_.at(t, [this, p, to, inbound] {
      for (ProcessId q : to) {
        if (q == p) continue;
        if (inbound)
          net_.set_link(q, p, false);
        else
          net_.set_link(p, q, false);
      }
    });
    return *this;
  }

  FaultScript& isolate_at(SimTime t, ProcessId p) {
    util::ProcessSet rest =
        util::ProcessSet::full(static_cast<ProcessId>(procs_.size()));
    rest.erase(p);
    return partition_at(t, {rest, util::ProcessSet{p}});
  }

  /// Drop the next `count` datagrams of `kind` sent by `from` towards the
  /// processes in `to`, starting at time t.
  FaultScript& drop_at(SimTime t, ProcessId from, std::uint8_t kind,
                       util::ProcessSet to, int count = 1) {
    sim_.at(t, [this, from, kind, to, count] {
      net_.arm_drop(from, kind, to, count);
    });
    return *this;
  }

  /// Drop the next `count` messages (every same-instant copy of each, see
  /// DatagramNetwork::arm_drop_message) of `kind` from `from` towards `to`.
  FaultScript& drop_message_at(SimTime t, ProcessId from, std::uint8_t kind,
                               util::ProcessSet to, int count = 1) {
    sim_.at(t, [this, from, kind, to, count] {
      net_.arm_drop_message(from, kind, to, count);
    });
    return *this;
  }

  /// Delay (past δ) instead of dropping.
  FaultScript& delay_at(SimTime t, ProcessId from, std::uint8_t kind,
                        util::ProcessSet to, int count, Duration extra) {
    sim_.at(t, [this, from, kind, to, count, extra] {
      net_.arm_delay(from, kind, to, count, extra);
    });
    return *this;
  }

  /// Duplicate instead of dropping.
  FaultScript& duplicate_at(SimTime t, ProcessId from, std::uint8_t kind,
                            util::ProcessSet to, int count = 1) {
    sim_.at(t, [this, from, kind, to, count] {
      net_.arm_duplicate(from, kind, to, count);
    });
    return *this;
  }

  /// Corrupt in flight (receive-side CRC rejects, so this is a scripted
  /// omission that exercises the integrity path).
  FaultScript& corrupt_at(SimTime t, ProcessId from, std::uint8_t kind,
                          util::ProcessSet to, int count = 1) {
    sim_.at(t, [this, from, kind, to, count] {
      net_.arm_corrupt(from, kind, to, count);
    });
    return *this;
  }

  /// Hardware-clock step fault: p's clock jumps by `delta` at time t.
  FaultScript& clock_step_at(SimTime t, ProcessId p, ClockTime delta) {
    sim_.at(t, [this, p, delta] { procs_.clock_step(p, delta); });
    return *this;
  }

  /// Hardware-clock drift fault: p's drift rate becomes `drift` at time t.
  FaultScript& clock_drift_at(SimTime t, ProcessId p, double drift) {
    sim_.at(t, [this, p, drift] { procs_.clock_set_drift(p, drift); });
    return *this;
  }

  /// Switch the ambient duplication/reorder/corruption model at time t.
  FaultScript& fault_model_at(SimTime t, NetFaultModel m) {
    sim_.at(t, [this, m] { net_.set_fault_model(m); });
    return *this;
  }

  /// Disarm all one-shot datagram rules at time t.
  FaultScript& clear_rules_at(SimTime t) {
    sim_.at(t, [this] { net_.clear_rules(); });
    return *this;
  }

 private:
  Simulator& sim_;
  ProcessService& procs_;
  DatagramNetwork& net_;
};

}  // namespace tw::sim
