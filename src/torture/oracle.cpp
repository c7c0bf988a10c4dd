#include "torture/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>

namespace tw::torture {

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// (ordinal, proposal) sequence of a lineage's total-order deliveries.
/// Unordered/time-ordered updates are delivered in receipt order and may
/// legitimately carry ordinals out of sequence, so they are skipped.
std::vector<std::pair<Ordinal, bcast::ProposalId>> ordinal_seq(
    const std::vector<gms::LineageEntry>& lineage) {
  std::vector<std::pair<Ordinal, bcast::ProposalId>> out;
  for (const auto& e : lineage)
    if (e.ordinal != kNoOrdinal && e.order == bcast::Order::total)
      out.emplace_back(e.ordinal, e.pid);
  return out;
}

/// The label OracleReport::to_string prints with each violation.
const char* violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::liveness: return "liveness";
    case ViolationKind::view: return "view";
    case ViolationKind::decider: return "decider";
    case ViolationKind::duplicate: return "duplicate";
    case ViolationKind::fifo: return "fifo";
    case ViolationKind::rebind: return "rebind";
    case ViolationKind::occupancy: return "occupancy";
    case ViolationKind::fork: return "fork";
    case ViolationKind::rehabilitation: return "rehabilitation";
    case ViolationKind::out_of_order: return "out-of-order";
    case ViolationKind::false_suspicion: return "false-suspicion";
    case ViolationKind::corruption: return "corruption";
  }
  return "?";
}

}  // namespace

std::uint64_t run_digest(gms::SimHarness& harness) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto& cluster = harness.cluster();
  for (const auto& r : cluster.trace_log().records()) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.t));
    h = fnv1a(h, r.p);
    h = fnv1a(h, static_cast<std::uint64_t>(r.kind));
    h = fnv1a(h, r.a);
    h = fnv1a(h, r.b);
    h = fnv1a(h, r.set.bits());
    h = fnv1a_str(h, r.note);
  }
  for (ProcessId p = 0; p < static_cast<ProcessId>(harness.n()); ++p) {
    h = fnv1a(h, 0x11ff00ffULL + p);
    for (const auto& e : harness.lineage(p)) {
      h = fnv1a(h, e.pid.proposer);
      h = fnv1a(h, e.pid.seq);
      h = fnv1a(h, e.ordinal);
      h = fnv1a(h, static_cast<std::uint64_t>(e.order));
    }
  }
  return h;
}

std::vector<std::string> check_gapless_ordinals(
    const gms::SimHarness& harness, util::ProcessSet members) {
  std::vector<std::string> errors;
  for (ProcessId p : members) {
    const auto seq = ordinal_seq(harness.lineage(p));
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (seq[i].first != seq[i - 1].first + 1) {
        errors.push_back("p" + std::to_string(p) +
                         ": ordinal gap between " +
                         std::to_string(seq[i - 1].first) + " and " +
                         std::to_string(seq[i].first));
      }
    }
  }
  return errors;
}

std::uint32_t OracleReport::kinds() const {
  std::uint32_t bits = 0;
  for (const auto& v : violations) bits |= 1u << static_cast<unsigned>(v.kind);
  return bits;
}

std::string OracleReport::to_string() const {
  std::ostringstream os;
  os << (passed() ? "PASS" : "FAIL") << " digest=" << std::hex
     << trace_digest << std::dec << " converged=" << (converged ? "y" : "n")
     << " group=" << final_group.to_string() << " delivered=" << delivered
     << " dup=" << duplicated << " reorder=" << reordered << " corrupt="
     << corrupted << "/" << dropped_corrupt << " rejected";
  for (const auto& v : violations)
    os << "\n  violation [" << violation_kind_name(v.kind) << "]: " << v.what;
  return os.str();
}

OracleReport run_oracle(gms::SimHarness& harness, const FaultPlan& plan) {
  OracleReport report;
  const auto n = static_cast<ProcessId>(plan.cfg.n);
  const util::ProcessSet everyone = util::ProcessSet::full(n);

  // Phase 1: live through the fault window.
  harness.run_until(plan.cfg.fault_end);
  // Phase 2: all fault sources are off (the plan's structural epilogue ran
  // at fault_end); the whole team must re-converge to one group.
  report.converged = harness.run_until_group(everyone, plan.cfg.deadline());
  // Phase 3: quiet tail so in-flight deliveries drain before checking.
  harness.run_for(plan.cfg.quiet_tail);

  report.final_group = everyone;
  if (!report.converged) {
    report.violations.push_back(
        {ViolationKind::liveness,
         "liveness: team did not re-form " + everyone.to_string() +
             " within " + std::to_string(sim::to_sec(plan.cfg.settle)) +
             "s after faults stopped"});
  }

  // §3 safety: view agreement, single decider, majority, and majority
  // group-history (lineage) agreement over the converged group. A lineage
  // ordinal conflict is further classified from the trace by the first
  // binding event some process recorded at the conflicting ordinal: a
  // cross-epoch ordinal rebind (oal_quarantined arg=1) means the fork
  // crossed a heal; an occupancy conflict (arg=2) means an adopted window
  // displaced a delivered binding, within one epoch when both halves of b
  // are equal. Either way report the epochs; with neither recorded the
  // lineage forked within a single epoch unobserved.
  {
    auto add = [&](ViolationKind kind, std::vector<std::string> found) {
      for (std::string& v : found)
        report.violations.push_back({kind, std::move(v)});
    };
    add(ViolationKind::view, harness.check_view_agreement());
    add(ViolationKind::decider, harness.check_single_decider());
    add(ViolationKind::view, harness.check_majority());
    constexpr std::string_view kConflict = "lineage ordinal conflict at ";
    std::vector<obs::Event> bindings;
    bool scanned = false;
    for (std::string& v : harness.check_lineage_agreement(everyone)) {
      ViolationKind kind = v.find(" FIFO violation") != std::string::npos
                               ? ViolationKind::fifo
                               : ViolationKind::duplicate;
      if (v.compare(0, kConflict.size(), kConflict) == 0) {
        if (!scanned) {
          scanned = true;
          for (const auto& e : harness.merged_trace())
            if (e.kind == obs::EvKind::oal_quarantined &&
                (e.arg == 1 || e.arg == 2))
              bindings.push_back(e);
        }
        const auto ord =
            std::strtoull(v.c_str() + kConflict.size(), nullptr, 10);
        const obs::Event* hit = nullptr;
        for (const auto& e : bindings)
          if (e.a == ord) { hit = &e; break; }
        if (hit == nullptr) {
          kind = ViolationKind::fork;
          v += " — same-epoch lineage fork (no rebind or occupancy"
               " conflict recorded)";
        } else {
          const std::uint64_t old_epoch = hit->b >> 32;
          const std::uint64_t new_epoch = hit->b & 0xffffffffULL;
          const std::string p = std::to_string(hit->p);
          const std::string from = std::to_string(old_epoch);
          const std::string to = std::to_string(new_epoch);
          if (hit->arg == 1) {
            kind = ViolationKind::rebind;
            v += " — cross-epoch rebind on p" + p + ": binding from epoch " +
                 from + " rebound under epoch " + to;
          } else {
            kind = ViolationKind::occupancy;
            v += std::string(" — ") +
                 (old_epoch == new_epoch ? "same-epoch " : "") +
                 "occupancy conflict on p" + p +
                 ": delivered binding from epoch " + from +
                 " displaced by the window of epoch " + to;
          }
        }
      }
      report.violations.push_back({kind, std::move(v)});
    }
  }

  // Rehabilitation liveness: every process that crashed during the fault
  // window was recovered by the structural epilogue at fault_end, a full
  // stabilization window (settle + quiet tail) before this check. By now
  // none may still be recovered-dirty — a dirty member is a zombie holding
  // pre-crash membership without replica state, exactly the deadlock the
  // rejoin solicitation exists to break — and none may still be buffering
  // application deliveries behind a state transfer that never came.
  // A node actively mid-solicitation is NOT wedged: group churn (or a
  // divergence re-baseline) can start a state transfer in the last
  // moments of the quiet tail. Grant a bounded grace — the solicitation
  // machinery's own give-up horizon — before calling it a violation; a
  // genuinely wedged zombie is still dirty when the grace runs out.
  if (report.converged) {
    const sim::Duration grace_step = sim::msec(500);
    for (int i = 0; i < 16; ++i) {
      bool busy = false;
      for (ProcessId p = 0; p < n; ++p) {
        const auto& node = harness.node(p);
        if (node.recovered_dirty() || node.awaiting_state() ||
            node.lineage_forked())
          busy = true;
      }
      if (!busy) break;
      harness.run_for(grace_step);
    }
    for (ProcessId p = 0; p < n; ++p) {
      const auto& node = harness.node(p);
      if (node.recovered_dirty() || node.awaiting_state() ||
          node.lineage_forked()) {
        report.violations.push_back(
            {ViolationKind::rehabilitation,
             "rehabilitation liveness: p" + std::to_string(p) +
                 " still recovered-dirty/awaiting-state/forked after"
                 " convergence (incarnation " +
                 std::to_string(node.incarnation()) + ")"});
      } else if (node.buffered_delivery_count() != 0) {
        report.violations.push_back(
            {ViolationKind::rehabilitation,
             "rehabilitation liveness: p" + std::to_string(p) + " holds " +
                 std::to_string(node.buffered_delivery_count()) +
                 " undelivered buffered messages after convergence"});
      }
    }
  }

  // Ordinal-stream monotonicity: within each member's history the
  // ordinal-assigned deliveries must appear in strictly increasing ordinal
  // order — total order delivery follows the decision order, and a state
  // transfer installs an ordinal-ordered donor prefix then resumes above
  // it. Exact stream equality between members is NOT guaranteed: a member
  // readmitted via state transfer inherits a donor snapshot and may lack
  // entries the donor delivered after serving it; what the paper guarantees
  // is the ordinal -> proposal mapping (check_lineage_agreement above) plus
  // each member seeing the decided updates in order. Combined with the
  // mapping check, monotonicity implies every pair of members agrees on the
  // relative order of all commonly delivered updates.
  for (ProcessId p = 0; p < n; ++p) {
    const auto seq = ordinal_seq(harness.lineage(p));
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (seq[i].first <= seq[i - 1].first) {
        report.violations.push_back(
            {ViolationKind::out_of_order,
             "p" + std::to_string(p) + " delivered ordinal " +
                 std::to_string(seq[i].first) + " after ordinal " +
                 std::to_string(seq[i - 1].first) +
                 " (out-of-order total delivery)"});
        break;
      }
    }
  }

  // Overload is not a failure: when the ONLY injected faults are
  // slow_receiver ops and the ambient datagram service is clean (no loss,
  // no lateness, no dup/reorder/corrupt model), every datagram arrives on
  // time and every member's outgoing control traffic stays timely — the
  // slow members are overloaded, not crashed or performance-failed. A
  // failure detector that suspects one turned backlog into a false crash
  // verdict. (Mixed plans skip this: loss or cuts make suspicion correct.)
  // A suspecter whose own inbound was throttled is exempt: it cannot tell
  // "peer silent" from "I am not draining my socket", and the protocol's
  // wrong-suspicion path handles its mistake safely (checked above). What
  // is NOT acceptable is a healthy observer suspecting the slow member —
  // its outgoing control traffic stayed timely, so only the detector
  // mistaking backlog for a crash could produce that verdict.
  {
    bool pure_slow = plan.cfg.loss_prob == 0.0 && plan.cfg.late_prob == 0.0;
    struct SlowWindow {
      ProcessId p;
      sim::SimTime from, until;
    };
    std::vector<SlowWindow> windows;
    util::ProcessSet slowed;
    for (const FaultOp& op : plan.ops) {
      if (op.type == FaultType::slow_receiver) {
        slowed.insert(op.p);
        // Grace past the window end: a detector timeout armed on stale
        // (throttled) observations can still fire shortly after the
        // backlog dissolves.
        windows.push_back({op.p, op.at, op.at + op.dur + sim::msec(500)});
      } else if (op.type == FaultType::set_model && op.model.active()) {
        pure_slow = false;
      } else if (!op.structural) {
        pure_slow = false;
      }
    }
    if (pure_slow && !slowed.empty()) {
      // Event times are synchronized-clock estimates (t_sync), good to
      // within clock-sync error of the sim times the plan names — widen
      // the exemption window rather than blame a boundary case.
      const sim::Duration sync_slop = sim::msec(100);
      auto throttled = [&](ProcessId p, std::int64_t t) {
        for (const SlowWindow& w : windows)
          if (w.p == p && t >= w.from - sync_slop && t <= w.until) return true;
        return false;
      };
      for (const auto& e : harness.merged_trace()) {
        if (e.kind == obs::EvKind::suspect &&
            slowed.contains(static_cast<ProcessId>(e.a)) &&
            !throttled(e.p, e.t_sync())) {
          report.violations.push_back(
              {ViolationKind::false_suspicion,
               "false suspicion: healthy p" + std::to_string(e.p) +
                   " suspected merely-slow p" + std::to_string(e.a) +
                   " (overload must not look like a crash)"});
          break;
        }
      }
    }
  }

  // Corruption containment: every datagram mutated in flight must have been
  // rejected by the CRC check, and nothing the application delivered may
  // carry a payload outside the issued workload tags. Read through the
  // metrics registry snapshot — the same surface benches and tools use.
  const obs::MetricsSnapshot snap = harness.metrics();
  report.corrupted = snap.value("net.corrupted");
  report.dropped_corrupt = snap.value("net.dropped_corrupt");
  report.duplicated = snap.value("net.duplicated");
  report.reordered = snap.value("net.reordered");
  report.delivered = snap.value("net.delivered");
  if (report.corrupted != report.dropped_corrupt) {
    report.violations.push_back(
        {ViolationKind::corruption,
         "corruption leak: " + std::to_string(report.corrupted) +
             " datagrams corrupted but only " +
             std::to_string(report.dropped_corrupt) + " rejected by CRC"});
  }
  {
    std::set<std::uint64_t> issued;
    for (const auto& w : plan.workload) issued.insert(w.tag);
    for (ProcessId p = 0; p < n; ++p) {
      for (const auto& rec : harness.delivered(p)) {
        const std::uint64_t tag =
            gms::SimHarness::payload_tag(rec.payload);
        if (!issued.contains(tag)) {
          report.violations.push_back(
              {ViolationKind::corruption,
               "p" + std::to_string(p) +
                   " delivered a payload with unknown tag " +
                   std::to_string(tag) +
                   " (corrupt payload reached the app?)"});
        }
      }
    }
  }

  report.trace_digest = run_digest(harness);
  return report;
}

}  // namespace tw::torture
