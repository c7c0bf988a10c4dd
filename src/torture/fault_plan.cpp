#include "torture/fault_plan.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "net/msg_kind.hpp"
#include "sim/random.hpp"

namespace tw::torture {

namespace {

/// Message kinds the targeted one-shot rules draw from: the control and
/// data traffic whose loss/duplication/corruption stresses distinct
/// protocol paths.
constexpr std::uint8_t kRuleKinds[] = {
    net::kind_byte(net::MsgKind::proposal),
    net::kind_byte(net::MsgKind::decision),
    net::kind_byte(net::MsgKind::no_decision),
    net::kind_byte(net::MsgKind::join),
    net::kind_byte(net::MsgKind::reconfiguration),
    net::kind_byte(net::MsgKind::state_transfer),
    net::kind_byte(net::MsgKind::clocksync_reply),
};

std::uint8_t pick_kind(sim::Rng& rng) {
  const auto i = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(std::size(kRuleKinds)) - 1));
  return kRuleKinds[i];
}

}  // namespace

const char* fault_type_name(FaultType t) {
  switch (t) {
    case FaultType::crash: return "crash";
    case FaultType::recover: return "recover";
    case FaultType::stall: return "stall";
    case FaultType::partition: return "partition";
    case FaultType::heal: return "heal";
    case FaultType::drop_rule: return "drop";
    case FaultType::delay_rule: return "delay";
    case FaultType::duplicate_rule: return "duplicate";
    case FaultType::corrupt_rule: return "corrupt";
    case FaultType::clock_step: return "clock_step";
    case FaultType::clock_drift: return "clock_drift";
    case FaultType::set_model: return "set_model";
    case FaultType::clear_rules: return "clear_rules";
    case FaultType::store_torn: return "store_torn";
    case FaultType::store_flip: return "store_flip";
    case FaultType::store_fsync: return "store_fsync";
    case FaultType::flap: return "flap";
    case FaultType::oneway: return "oneway";
    case FaultType::slow_receiver: return "slow_receiver";
    case FaultType::drop_message: return "drop_message";
  }
  return "?";
}

std::string FaultOp::to_string() const {
  std::ostringstream os;
  os << "t=" << std::fixed << std::setprecision(3) << sim::to_sec(at) << "s "
     << fault_type_name(type);
  switch (type) {
    case FaultType::crash:
    case FaultType::recover:
      os << " p" << p;
      break;
    case FaultType::stall:
      os << " p" << p << " for " << sim::to_ms(dur) << "ms";
      break;
    case FaultType::partition:
      os << " majority side " << targets.to_string();
      break;
    case FaultType::heal:
    case FaultType::clear_rules:
      break;
    case FaultType::drop_rule:
    case FaultType::drop_message:
    case FaultType::duplicate_rule:
    case FaultType::corrupt_rule:
      os << " from p" << p << " kind=" << static_cast<int>(kind) << " to "
         << targets.to_string() << " x" << count;
      break;
    case FaultType::delay_rule:
      os << " from p" << p << " kind=" << static_cast<int>(kind) << " to "
         << targets.to_string() << " x" << count << " +" << sim::to_ms(dur)
         << "ms";
      break;
    case FaultType::clock_step:
      os << " p" << p << " by " << sim::to_ms(step) << "ms";
      break;
    case FaultType::clock_drift:
      os << " p" << p << " rate=" << drift;
      break;
    case FaultType::set_model:
      os << " dup=" << model.dup_prob << " reorder=" << model.reorder_prob
         << " corrupt=" << model.corrupt_prob;
      break;
    case FaultType::store_torn:
      os << " p" << p << " x" << count << " keep " << static_cast<int>(kind)
         << "%";
      break;
    case FaultType::store_flip:
      os << " p" << p << (kind == 0 ? " log" : " snap") << " bit " << step;
      break;
    case FaultType::store_fsync:
      os << " p" << p << " x" << count;
      break;
    case FaultType::flap:
      os << " side " << targets.to_string() << " x" << count << " every "
         << sim::to_ms(dur) << "ms";
      break;
    case FaultType::oneway:
      os << " p" << p << (kind != 0 ? " deaf to " : " mute towards ")
         << targets.to_string();
      break;
    case FaultType::slow_receiver:
      os << " p" << p << " at " << static_cast<int>(kind) << "% for "
         << sim::to_ms(dur) << "ms";
      break;
  }
  return os.str();
}

FaultPlan generate_plan(const TortureConfig& cfg, std::uint64_t seed) {
  FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = seed;
  // A dedicated stream: the harness's own RNG (delays, sched) uses `seed`
  // directly, so keep the plan stream decorrelated.
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7075);

  const auto n = static_cast<ProcessId>(cfg.n);
  const int majority = cfg.n / 2 + 1;
  const util::ProcessSet everyone = util::ProcessSet::full(n);

  // Ambient model while faults are active (gated by the family toggles).
  sim::NetFaultModel ambient;
  if (cfg.duplication) ambient.dup_prob = cfg.model.dup_prob;
  if (cfg.reordering) ambient.reorder_prob = cfg.model.reorder_prob;
  if (cfg.corruption) ambient.corrupt_prob = cfg.model.corrupt_prob;
  if (ambient.active()) {
    FaultOp on;
    on.at = cfg.fault_start;
    on.type = FaultType::set_model;
    on.model = ambient;
    on.structural = true;
    plan.ops.push_back(on);
  }

  // Liveness bookkeeping: the paper's §3 guarantees assume a majority of
  // knowledge-holders survives (see gms_property_test), so crashes are
  // gated on a veteran majority and partitions always keep a majority side.
  std::vector<bool> up(static_cast<std::size_t>(cfg.n), true);
  std::vector<sim::SimTime> up_since(static_cast<std::size_t>(cfg.n), 0);
  std::vector<bool> drifted(static_cast<std::size_t>(cfg.n), false);
  int up_count = cfg.n;
  const sim::Duration veteran_age = sim::sec(5);
  auto veterans = [&](sim::SimTime at, ProcessId excluding) {
    int count = 0;
    for (ProcessId q = 0; q < n; ++q)
      if (q != excluding && up[q] && at - up_since[q] >= veteran_age) ++count;
    return count;
  };

  // A uniformly random majority-sized side drawn from the live processes
  // (partition, flap and the heal-during-state-transfer composite all keep
  // the §3 failure assumption by construction).
  auto majority_side = [&] {
    std::vector<ProcessId> ups;
    for (ProcessId q = 0; q < n; ++q)
      if (up[q]) ups.push_back(q);
    for (std::size_t i = ups.size(); i > 1; --i)
      std::swap(ups[i - 1],
                ups[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    util::ProcessSet side;
    for (int i = 0; i < majority; ++i)
      side.insert(ups[static_cast<std::size_t>(i)]);
    return side;
  };

  sim::SimTime partitioned_until = -1;
  sim::SimTime t = cfg.fault_start;
  for (;;) {
    t += rng.uniform_int(sim::msec(150), sim::msec(1200));
    if (t >= cfg.fault_end) break;
    FaultOp op;
    op.at = t;
    const auto p = static_cast<ProcessId>(rng.uniform_int(0, cfg.n - 1));
    switch (rng.uniform_int(0, 16)) {
      case 0:
      case 1:  // crash, if the failure assumption allows it
        if (cfg.crashes && up[p] && t >= partitioned_until &&
            up_count - 1 >= majority && veterans(t, p) >= majority) {
          op.type = FaultType::crash;
          op.p = p;
          up[p] = false;
          --up_count;
          plan.ops.push_back(op);
        }
        break;
      case 2:
      case 3:  // recover a downed process
        if (!up[p]) {
          op.type = FaultType::recover;
          op.p = p;
          up[p] = true;
          up_since[p] = t;
          ++up_count;
          plan.ops.push_back(op);
        }
        break;
      case 4:  // stall past sigma
        if (cfg.stalls && up[p]) {
          op.type = FaultType::stall;
          op.p = p;
          op.dur = rng.uniform_int(sim::msec(5), sim::msec(60));
          plan.ops.push_back(op);
        }
        break;
      case 5:  // partition with a majority side, healed shortly after
        if (cfg.partitions && t >= partitioned_until &&
            up_count >= majority) {
          op.type = FaultType::partition;
          op.targets = majority_side();
          plan.ops.push_back(op);
          FaultOp heal;
          heal.at = std::min(t + rng.uniform_int(sim::msec(500),
                                                 sim::msec(2500)),
                             cfg.fault_end);
          heal.type = FaultType::heal;
          plan.ops.push_back(heal);
          partitioned_until = heal.at;
        }
        break;
      case 6:  // targeted drop burst
      case 7:
        if (cfg.drops) {
          op.type = FaultType::drop_rule;
          op.p = p;
          op.kind = pick_kind(rng);
          op.targets = everyone;
          op.count = static_cast<int>(rng.uniform_int(1, 4));
          plan.ops.push_back(op);
        }
        break;
      case 8:  // targeted duplicate burst
        if (cfg.duplication) {
          op.type = FaultType::duplicate_rule;
          op.p = p;
          op.kind = pick_kind(rng);
          op.targets = everyone;
          op.count = static_cast<int>(rng.uniform_int(1, 4));
          plan.ops.push_back(op);
        }
        break;
      case 9:  // targeted corruption burst
        if (cfg.corruption) {
          op.type = FaultType::corrupt_rule;
          op.p = p;
          op.kind = pick_kind(rng);
          op.targets = everyone;
          op.count = static_cast<int>(rng.uniform_int(1, 4));
          plan.ops.push_back(op);
        }
        break;
      case 10:  // stable-storage fault (torn append / bit flip / fsync)
        if (cfg.store_faults) {
          switch (rng.uniform_int(0, 2)) {
            case 0:
              op.type = FaultType::store_torn;
              op.count = static_cast<int>(rng.uniform_int(1, 3));
              op.kind = static_cast<std::uint8_t>(rng.uniform_int(10, 90));
              break;
            case 1:
              op.type = FaultType::store_flip;
              // Mostly attack the log (it grows continuously); sometimes
              // the snapshot, forcing the open-time fallback paths.
              op.kind = rng.chance(0.3) ? 1 : 0;
              op.step = rng.uniform_int(0, 1 << 20);  // mod file bits
              break;
            default:
              op.type = FaultType::store_fsync;
              op.count = static_cast<int>(rng.uniform_int(1, 4));
              break;
          }
          op.p = p;
          plan.ops.push_back(op);
        }
        break;
      case 11:  // hardware-clock step
        if (cfg.clock_faults && up[p]) {
          op.type = FaultType::clock_step;
          op.p = p;
          op.step = rng.uniform_int(sim::msec(1), sim::msec(120));
          if (rng.chance(0.5)) op.step = -op.step;
          plan.ops.push_back(op);
        }
        break;
      case 12:  // flapping partition: the same cut opens and heals x count
        if (cfg.partitions && t >= partitioned_until &&
            up_count >= majority) {
          const int cycles = static_cast<int>(rng.uniform_int(2, 4));
          const sim::Duration period =
              rng.uniform_int(sim::msec(300), sim::msec(900));
          const auto flap_end =
              t + static_cast<sim::SimTime>(cycles) * period;
          if (flap_end < cfg.fault_end) {
            op.type = FaultType::flap;
            op.targets = majority_side();
            op.count = cycles;
            op.dur = period;
            plan.ops.push_back(op);
            partitioned_until = flap_end;
          }
        }
        break;
      case 13:  // asymmetric cut: p keeps sending but goes deaf (or mute)
        if (cfg.partitions && up[p] && t >= partitioned_until &&
            up_count >= majority) {
          op.type = FaultType::oneway;
          op.p = p;
          op.kind = rng.chance(0.5) ? 1 : 0;
          op.targets = everyone.minus(util::ProcessSet{p});
          plan.ops.push_back(op);
          FaultOp heal;
          heal.at = std::min(t + rng.uniform_int(sim::msec(400),
                                                 sim::msec(1800)),
                             cfg.fault_end);
          heal.type = FaultType::heal;
          plan.ops.push_back(heal);
          partitioned_until = heal.at;
        }
        break;
      case 14:  // recover straight into a cut that heals mid state-transfer
        if (cfg.partitions && !up[p] && t >= partitioned_until) {
          op.type = FaultType::recover;
          op.p = p;
          up[p] = true;
          up_since[p] = t;
          ++up_count;
          plan.ops.push_back(op);
          const auto cut_at =
              t + rng.uniform_int(sim::msec(100), sim::msec(400));
          if (up_count >= majority && cut_at < cfg.fault_end) {
            FaultOp cut;
            cut.at = cut_at;
            cut.type = FaultType::partition;
            cut.targets = majority_side();
            plan.ops.push_back(cut);
            FaultOp heal;
            heal.at = std::min(cut.at + rng.uniform_int(sim::msec(300),
                                                        sim::msec(1200)),
                               cfg.fault_end);
            heal.type = FaultType::heal;
            plan.ops.push_back(heal);
            partitioned_until = heal.at;
          }
        }
        break;
      case 15:  // slow receiver: alive but draining at a fraction of rate
        if (cfg.slow_receivers && up[p]) {
          op.type = FaultType::slow_receiver;
          op.p = p;
          op.kind = static_cast<std::uint8_t>(rng.uniform_int(10, 90));
          op.dur = std::min<sim::Duration>(
              rng.uniform_int(sim::msec(300), sim::msec(2000)),
              std::max<sim::Duration>(1, cfg.fault_end - t));
          plan.ops.push_back(op);
        }
        break;
      default:  // hardware-clock drift change
        if (cfg.clock_faults && up[p]) {
          op.type = FaultType::clock_drift;
          op.p = p;
          op.drift = rng.uniform_real(2e-5, 3e-4);
          if (rng.chance(0.5)) op.drift = -op.drift;
          drifted[p] = true;
          plan.ops.push_back(op);
        }
        break;
    }
  }

  // Epilogue (structural): stop all fault sources at fault_end so the team
  // can converge — heal links, disarm rules, ambient model off, recover
  // everyone, restore sane drift rates.
  auto structural = [&](FaultType type) {
    FaultOp op;
    op.at = cfg.fault_end;
    op.type = type;
    op.structural = true;
    return op;
  };
  plan.ops.push_back(structural(FaultType::heal));
  plan.ops.push_back(structural(FaultType::clear_rules));
  if (ambient.active()) plan.ops.push_back(structural(FaultType::set_model));
  for (ProcessId q = 0; q < n; ++q) {
    if (!up[q]) {
      FaultOp op = structural(FaultType::recover);
      op.p = q;
      plan.ops.push_back(op);
    }
    if (drifted[q]) {
      FaultOp op = structural(FaultType::clock_drift);
      op.p = q;
      op.drift = 0.0;
      plan.ops.push_back(op);
    }
  }

  // Proposal workload: updates flowing through the fault window, covering
  // the full order × atomicity matrix.
  if (cfg.workload_rate_hz > 0) {
    const auto gap =
        static_cast<sim::Duration>(1e6 / cfg.workload_rate_hz);
    std::uint64_t tag = 1;
    sim::SimTime w = cfg.fault_start;
    for (;;) {
      w += rng.uniform_int(std::max<sim::Duration>(1, gap / 2),
                           gap + gap / 2);
      if (w >= cfg.fault_end) break;
      WorkloadOp wop;
      wop.at = w;
      wop.proposer = static_cast<ProcessId>(rng.uniform_int(0, cfg.n - 1));
      wop.tag = tag++;
      wop.order = static_cast<bcast::Order>(rng.uniform_int(0, 2));
      wop.atomicity = static_cast<bcast::Atomicity>(rng.uniform_int(0, 2));
      plan.workload.push_back(wop);
    }
  }
  return plan;
}

gms::HarnessConfig harness_config(const FaultPlan& plan) {
  gms::HarnessConfig cfg;
  cfg.n = plan.cfg.n;
  cfg.seed = plan.seed;
  cfg.delays.loss_prob = plan.cfg.loss_prob;
  cfg.delays.late_prob = plan.cfg.late_prob;
  cfg.node.max_batch = plan.cfg.max_batch;
  cfg.node.occupancy_guard = plan.cfg.occupancy_guard;
  return cfg;
}

void apply_plan(const FaultPlan& plan, gms::SimHarness& harness) {
  auto& faults = harness.faults();
  const auto everyone =
      util::ProcessSet::full(static_cast<ProcessId>(plan.cfg.n));
  for (const FaultOp& op : plan.ops) {
    switch (op.type) {
      case FaultType::crash:
        faults.crash_at(op.at, op.p);
        break;
      case FaultType::recover:
        faults.recover_at(op.at, op.p);
        break;
      case FaultType::stall:
        faults.stall_at(op.at, op.p, op.dur);
        break;
      case FaultType::partition:
        faults.partition_at(op.at, {op.targets, everyone.minus(op.targets)});
        break;
      case FaultType::heal:
        faults.heal_at(op.at);
        break;
      case FaultType::flap:
        faults.flap_at(op.at, {op.targets, everyone.minus(op.targets)},
                       op.count, op.dur);
        break;
      case FaultType::oneway:
        faults.oneway_at(op.at, op.p, op.targets, op.kind != 0);
        break;
      case FaultType::slow_receiver:
        faults.slow_receiver_at(op.at, op.p, static_cast<int>(op.kind),
                                op.dur);
        break;
      case FaultType::drop_rule:
        faults.drop_at(op.at, op.p, op.kind, op.targets, op.count);
        break;
      case FaultType::drop_message:
        faults.drop_message_at(op.at, op.p, op.kind, op.targets, op.count);
        break;
      case FaultType::delay_rule:
        faults.delay_at(op.at, op.p, op.kind, op.targets, op.count, op.dur);
        break;
      case FaultType::duplicate_rule:
        faults.duplicate_at(op.at, op.p, op.kind, op.targets, op.count);
        break;
      case FaultType::corrupt_rule:
        faults.corrupt_at(op.at, op.p, op.kind, op.targets, op.count);
        break;
      case FaultType::clock_step:
        faults.clock_step_at(op.at, op.p, op.step);
        break;
      case FaultType::clock_drift:
        faults.clock_drift_at(op.at, op.p, op.drift);
        break;
      case FaultType::set_model:
        faults.fault_model_at(op.at, op.model);
        break;
      case FaultType::clear_rules:
        faults.clear_rules_at(op.at);
        break;
      case FaultType::store_torn:
      case FaultType::store_flip:
      case FaultType::store_fsync:
        if (!harness.durable()) break;  // storeless run: nothing to attack
        harness.cluster().simulator().at(op.at, [&harness, op] {
          store::MemStorage& m = harness.mem_storage(op.p);
          switch (op.type) {
            case FaultType::store_torn:
              m.faults().torn_appends += op.count;
              m.faults().torn_keep_pct = op.kind;
              break;
            case FaultType::store_flip:
              m.flip_bit("p" + std::to_string(op.p) +
                             (op.kind == 0 ? ".log" : ".snap"),
                         static_cast<std::uint64_t>(op.step));
              break;
            default:
              m.faults().fsync_failures += op.count;
              break;
          }
        });
        break;
    }
  }
  for (const WorkloadOp& wop : plan.workload) {
    harness.cluster().simulator().at(wop.at, [&harness, wop] {
      if (harness.cluster().processes().is_up(wop.proposer))
        harness.propose(wop.proposer, wop.tag, wop.order, wop.atomicity);
    });
  }
}

std::string plan_to_string(const FaultPlan& plan) {
  std::ostringstream os;
  os << std::setprecision(17);
  const TortureConfig& c = plan.cfg;
  os << "torture-plan v1\n";
  os << "n " << c.n << "\nseed " << plan.seed << "\nloss " << c.loss_prob
     << "\nlate " << c.late_prob << "\ndup " << c.model.dup_prob
     << "\nreorder " << c.model.reorder_prob << "\ncorrupt "
     << c.model.corrupt_prob << "\nfault_start " << c.fault_start
     << "\nfault_end " << c.fault_end << "\nsettle " << c.settle
     << "\nquiet " << c.quiet_tail << "\nrate " << c.workload_rate_hz
     << "\nbatch " << c.max_batch << "\n";
  // Optional keys, written only off-default so pre-existing dumps (and
  // their digests) are byte-identical: a disabled occupancy guard marks a
  // deliberately mutated run, round marks label explore windows.
  if (!c.occupancy_guard) os << "guard 0\n";
  for (const RoundMark& r : plan.rounds)
    os << "round " << r.index << ' ' << r.at << '\n';
  for (const FaultOp& op : plan.ops) {
    os << "op " << fault_type_name(op.type) << ' ' << op.at << ' '
       << static_cast<std::int64_t>(op.p) << ' '
       << static_cast<int>(op.kind) << ' ' << op.targets.bits() << ' '
       << op.count << ' ' << op.dur << ' ' << op.step << ' ' << op.drift
       << ' ' << op.model.dup_prob << ' ' << op.model.reorder_prob << ' '
       << op.model.corrupt_prob << ' ' << (op.structural ? 1 : 0) << '\n';
  }
  for (const WorkloadOp& wop : plan.workload) {
    os << "w " << wop.at << ' ' << wop.proposer << ' ' << wop.tag << ' '
       << static_cast<int>(wop.order) << ' '
       << static_cast<int>(wop.atomicity) << '\n';
  }
  os << "end\n";
  return os.str();
}

bool plan_from_string(const std::string& text, FaultPlan& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "torture-plan v1") return false;
  FaultPlan plan;
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "n") {
      ls >> plan.cfg.n;
    } else if (key == "seed") {
      ls >> plan.seed;
    } else if (key == "loss") {
      ls >> plan.cfg.loss_prob;
    } else if (key == "late") {
      ls >> plan.cfg.late_prob;
    } else if (key == "dup") {
      ls >> plan.cfg.model.dup_prob;
    } else if (key == "reorder") {
      ls >> plan.cfg.model.reorder_prob;
    } else if (key == "corrupt") {
      ls >> plan.cfg.model.corrupt_prob;
    } else if (key == "fault_start") {
      ls >> plan.cfg.fault_start;
    } else if (key == "fault_end") {
      ls >> plan.cfg.fault_end;
    } else if (key == "settle") {
      ls >> plan.cfg.settle;
    } else if (key == "quiet") {
      ls >> plan.cfg.quiet_tail;
    } else if (key == "rate") {
      ls >> plan.cfg.workload_rate_hz;
    } else if (key == "batch") {
      // Optional: dumps from before proposal batching default to 1.
      ls >> plan.cfg.max_batch;
    } else if (key == "guard") {
      // Optional: omitted (old dumps included) means the guard is on.
      int guard = 1;
      ls >> guard;
      plan.cfg.occupancy_guard = guard != 0;
    } else if (key == "round") {
      // Optional round-boundary marks from explore-generated plans.
      RoundMark mark;
      ls >> mark.index >> mark.at;
      if (ls.fail()) return false;
      plan.rounds.push_back(mark);
    } else if (key == "op") {
      std::string type_name;
      std::int64_t p = 0;
      int kind = 0, count = 0, structural = 0;
      std::uint64_t bits = 0;
      FaultOp op;
      ls >> type_name >> op.at >> p >> kind >> bits >> count >> op.dur >>
          op.step >> op.drift >> op.model.dup_prob >>
          op.model.reorder_prob >> op.model.corrupt_prob >> structural;
      if (ls.fail()) return false;
      bool found = false;
      for (int ti = 0; ti <= static_cast<int>(FaultType::drop_message);
           ++ti) {
        if (type_name == fault_type_name(static_cast<FaultType>(ti))) {
          op.type = static_cast<FaultType>(ti);
          found = true;
          break;
        }
      }
      if (!found) return false;
      op.p = static_cast<ProcessId>(p);
      op.kind = static_cast<std::uint8_t>(kind);
      op.targets = util::ProcessSet(bits);
      op.count = count;
      op.structural = structural != 0;
      plan.ops.push_back(op);
    } else if (key == "w") {
      WorkloadOp wop;
      int order = 0, atomicity = 0;
      ls >> wop.at >> wop.proposer >> wop.tag >> order >> atomicity;
      if (ls.fail()) return false;
      wop.order = static_cast<bcast::Order>(order);
      wop.atomicity = static_cast<bcast::Atomicity>(atomicity);
      plan.workload.push_back(wop);
    } else {
      return false;
    }
  }
  if (!saw_end) return false;
  out = std::move(plan);
  return true;
}

}  // namespace tw::torture
