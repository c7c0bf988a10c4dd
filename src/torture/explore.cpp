#include "torture/explore.hpp"

#include <algorithm>
#include <sstream>

#include "gms/config.hpp"
#include "net/msg_kind.hpp"

namespace tw::torture {

namespace {

/// Sub-bucket offsets keep same-bucket cases deterministic AND distinct:
/// the workload, the crash and the partition land at different fractions
/// of the bucket, so "crash and cut in bucket (r,b)" is one well-defined
/// interleaving, not a tie.
constexpr int kCrashNum = 1, kCrashDen = 3;  ///< crash at 1/3 of the bucket
constexpr int kDropNum = 1, kDropDen = 2;    ///< drop armed at 1/2
constexpr int kCutNum = 2, kCutDen = 3;      ///< cut at 2/3 of the bucket

struct Position {
  int round = 0;
  int bucket = 0;
};

Position decode_position(const ExploreWindow& w, int pos) {
  return {pos / w.buckets, pos % w.buckets};
}

sim::SimTime bucket_start(const ExploreWindow& w, Position pos) {
  const sim::Duration round = w.round_len();
  const sim::Duration bucket = round / w.buckets;
  return w.window_start + pos.round * round + pos.bucket * bucket;
}

}  // namespace

sim::Duration ExploreWindow::round_len() const {
  // One full decider rotation at the default node timing: every member
  // holds the decider role once, so a transition placed in round r+1 hits
  // the same ring state as in round r only if nothing else intervened —
  // exactly the communication-closed-rounds equivalence the enumeration
  // leans on to stay small.
  return gms::NodeConfig{}.slot_len() * n;
}

int ExploreWindow::case_count() const {
  const int positions = rounds * buckets;
  const int crash_domain = crash ? 1 + n * positions : 1;
  const int part_domain = partition ? 1 + n * positions * 2 : 1;
  const int drop_domain = drops ? 1 + n * (n - 1) * positions : 1;
  return crash_domain * part_domain * drop_domain;
}

FaultPlan build_explore_case(const ExploreWindow& window, int crash_choice,
                             int part_choice, int drop_choice) {
  const int positions = window.rounds * window.buckets;
  const sim::Duration round = window.round_len();
  const sim::Duration bucket = round / window.buckets;

  FaultPlan plan;
  plan.seed = window.seed;
  TortureConfig& c = plan.cfg;
  c.n = window.n;
  // A clean ambient network: the only nondeterminism left is the base
  // delay/scheduling stream of `seed`, shared by every case, so cases
  // differ in the enumerated transitions alone.
  c.loss_prob = 0.0;
  c.late_prob = 0.0;
  c.model = sim::NetFaultModel{};
  c.crashes = c.stalls = c.partitions = c.drops = false;
  c.duplication = c.reordering = c.corruption = false;
  c.clock_faults = c.store_faults = false;
  c.workload_rate_hz = 0.0;  // the fixed workload below, not a sampled one
  c.fault_start = window.window_start;
  c.fault_end = window.window_start + window.rounds * round;
  c.settle = window.settle;
  c.quiet_tail = window.quiet_tail;
  c.occupancy_guard = window.occupancy_guard;

  for (int r = 0; r < window.rounds; ++r)
    plan.rounds.push_back({r, window.window_start + r * round});

  // Fixed workload: every member proposes one totally-ordered update per
  // bucket (weak atomicity, so an isolated member can still run its local
  // stream — the delivery disagreements the oracle hunts for need both
  // sides of a cut to make progress). Proposers are spread across the
  // bucket so proposals straddle whatever transition lands there.
  std::uint64_t tag = 1;
  for (int pos = 0; pos < positions; ++pos) {
    const sim::SimTime start =
        bucket_start(window, decode_position(window, pos));
    for (ProcessId p = 0; p < static_cast<ProcessId>(window.n); ++p) {
      WorkloadOp wop;
      wop.at = start + (p + 1) * bucket / (window.n + 1);
      wop.proposer = p;
      wop.tag = tag++;
      wop.order = bcast::Order::total;
      wop.atomicity = bcast::Atomicity::weak;
      plan.workload.push_back(wop);
    }
  }

  ProcessId crashed = kNoProcess;
  if (crash_choice >= 0) {
    FaultOp op;
    op.type = FaultType::crash;
    op.p = static_cast<ProcessId>(crash_choice / positions);
    const Position pos = decode_position(window, crash_choice % positions);
    op.at = bucket_start(window, pos) + bucket * kCrashNum / kCrashDen;
    plan.ops.push_back(op);
    crashed = op.p;
  }

  if (drop_choice >= 0) {
    // Decision omission: the next decision from `sender` never reaches
    // `deaf` — every copy of it, including the handoff copy a successor
    // gets besides the broadcast, and the next decision-kind datagram
    // after it too, which is the copy `deaf` pulls when it watches
    // `sender` as its decider. If the drop lands on the successor
    // decider's inbound decision, the successor re-orders the
    // still-unordered proposals at ordinals the lost decision already
    // assigned — the within-epoch fork the delivery engine's occupancy
    // guard repairs. The omission also loses every member's next
    // retransmit request: a member that asks for an overdue payload at once
    // would otherwise repair it ahead of the decisions the fork needs.
    const int others = window.n - 1;
    const auto sender =
        static_cast<ProcessId>(drop_choice / (others * positions));
    const int rest = drop_choice % (others * positions);
    int deaf = rest / positions;
    if (deaf >= static_cast<int>(sender)) ++deaf;  // never drops to itself
    const Position pos = decode_position(window, rest % positions);
    FaultOp op;
    op.type = FaultType::drop_message;
    op.at = bucket_start(window, pos) + bucket * kDropNum / kDropDen;
    op.p = sender;
    op.kind = net::kind_byte(net::MsgKind::decision);
    op.targets = util::ProcessSet{static_cast<ProcessId>(deaf)};
    op.count = 2;
    plan.ops.push_back(op);
    FaultOp repair = op;
    repair.kind = net::kind_byte(net::MsgKind::retransmit_request);
    repair.targets = util::ProcessSet::full(static_cast<ProcessId>(window.n));
    repair.count = 1;
    for (ProcessId q = 0; q < static_cast<ProcessId>(window.n); ++q) {
      repair.p = q;
      plan.ops.push_back(repair);
    }
  }

  if (part_choice >= 0) {
    // One member is cut off; the other n-1 are the majority side. The heal
    // comes either one bucket later (the cut barely outlives its round
    // position) or one full round later (the ring turns over while split).
    const int isolated = part_choice / (positions * 2);
    const int rest = part_choice % (positions * 2);
    const Position pos = decode_position(window, rest / 2);
    const sim::Duration heal_after = (rest % 2 == 0) ? bucket : round;
    FaultOp cut;
    cut.type = FaultType::partition;
    cut.at = bucket_start(window, pos) + bucket * kCutNum / kCutDen;
    cut.targets = util::ProcessSet::full(static_cast<ProcessId>(window.n));
    cut.targets.erase(static_cast<ProcessId>(isolated));
    plan.ops.push_back(cut);
    FaultOp heal;
    heal.type = FaultType::heal;
    heal.at = std::min(cut.at + heal_after, c.fault_end);
    plan.ops.push_back(heal);
  }

  // Structural epilogue, as in generate_plan: every fault source off at
  // fault_end so the oracle's convergence phase starts well-formed. The
  // recover is safe even if the minimizer drops the crash (recovering a
  // live process is a no-op), and clear_rules disarms a drop rule whose
  // decision never flowed — an armed rule surviving into the convergence
  // phase would leak the window's nondeterminism past its closing edge.
  FaultOp heal;
  heal.at = c.fault_end;
  heal.type = FaultType::heal;
  heal.structural = true;
  plan.ops.push_back(heal);
  if (drop_choice >= 0) {
    FaultOp disarm;
    disarm.at = c.fault_end;
    disarm.type = FaultType::clear_rules;
    disarm.structural = true;
    plan.ops.push_back(disarm);
  }
  if (crashed != kNoProcess) {
    FaultOp rec;
    rec.at = c.fault_end;
    rec.type = FaultType::recover;
    rec.p = crashed;
    rec.structural = true;
    plan.ops.push_back(rec);
  }
  return plan;
}

ExploreResult explore(const ExploreWindow& window,
                      const std::function<void(int, int)>& progress,
                      int keep_failures) {
  const int positions = window.rounds * window.buckets;
  // The choice tree: level 0 picks the crash transition (none, or victim x
  // position), level 1 the partition transition (none, or isolated member
  // x position x heal length), level 2 the decision omission (none, or
  // sender x deaf member x position). -1 encodes "absent".
  const std::vector<int> domains = {
      window.crash ? window.n * positions : 0,
      window.partition ? window.n * positions * 2 : 0,
      window.drops ? window.n * (window.n - 1) * positions : 0,
  };
  const int leaf_depth = static_cast<int>(domains.size()) - 1;
  const int total = window.case_count();

  ExploreResult result;
  TortureEngine engine{TortureConfig{}};  // run_plan uses each plan's cfg
  // Iterative DFS over the levels, visiting each leaf exactly once. An
  // explicit stack (rather than nested loops) keeps the shape a deeper
  // window — more optional transitions — would need.
  struct Frame {
    int depth;
    int choice;  ///< -1 = transition absent, else domain index
  };
  std::vector<Frame> stack;
  std::vector<int> picked(domains.size(), -1);
  for (int i = domains[0] - 1; i >= -1; --i) stack.push_back({0, i});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    picked[static_cast<std::size_t>(f.depth)] = f.choice;
    if (f.depth < leaf_depth) {
      const int next = f.depth + 1;
      for (int i = domains[static_cast<std::size_t>(next)] - 1; i >= -1; --i)
        stack.push_back({next, i});
      continue;
    }
    const FaultPlan plan =
        build_explore_case(window, picked[0], picked[1], picked[2]);
    RunResult run = engine.run_plan(plan);
    ++result.cases;
    if (!run.passed()) {
      ++result.violations;
      if (static_cast<int>(result.failed.size()) < keep_failures)
        result.failed.push_back(std::move(run));
    }
    if (progress) progress(result.cases, total);
  }
  return result;
}

std::string window_to_string(const ExploreWindow& w) {
  std::ostringstream os;
  os << "explore-window v1\n";
  os << "n " << w.n << "\nrounds " << w.rounds << "\nbuckets " << w.buckets
     << "\nseed " << w.seed << "\ncrash " << (w.crash ? 1 : 0)
     << "\npartition " << (w.partition ? 1 : 0) << "\ndrops "
     << (w.drops ? 1 : 0) << "\nguard "
     << (w.occupancy_guard ? 1 : 0) << "\nstart " << w.window_start
     << "\nsettle " << w.settle << "\nquiet " << w.quiet_tail << "\n";
  os << "end\n";
  return os.str();
}

bool window_from_string(const std::string& text, ExploreWindow& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "explore-window v1") return false;
  ExploreWindow w;
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    int flag = 0;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "n") {
      ls >> w.n;
    } else if (key == "rounds") {
      ls >> w.rounds;
    } else if (key == "buckets") {
      ls >> w.buckets;
    } else if (key == "seed") {
      ls >> w.seed;
    } else if (key == "crash") {
      ls >> flag;
      w.crash = flag != 0;
    } else if (key == "partition") {
      ls >> flag;
      w.partition = flag != 0;
    } else if (key == "drops") {
      ls >> flag;
      w.drops = flag != 0;
    } else if (key == "guard") {
      ls >> flag;
      w.occupancy_guard = flag != 0;
    } else if (key == "start") {
      ls >> w.window_start;
    } else if (key == "settle") {
      ls >> w.settle;
    } else if (key == "quiet") {
      ls >> w.quiet_tail;
    } else {
      return false;
    }
    if (ls.fail()) return false;
  }
  if (!saw_end) return false;
  if (w.n < 3 || w.n > 8 || w.rounds < 1 || w.buckets < 1) return false;
  out = w;
  return true;
}

}  // namespace tw::torture
