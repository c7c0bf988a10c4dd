#include "gms/sim_harness.hpp"

#include <map>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace tw::gms {

namespace {

net::SimClusterConfig cluster_config(const HarnessConfig& cfg) {
  net::SimClusterConfig cc;
  cc.n = cfg.n;
  cc.seed = cfg.seed;
  cc.delays = cfg.delays;
  cc.sched = cfg.sched;
  cc.rho = cfg.perfect_clocks ? 0.0 : cfg.rho;
  cc.max_clock_offset = cfg.perfect_clocks ? 0 : kHarnessClockOffset;
  return cc;
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

SimHarness::SimHarness(HarnessConfig cfg)
    : cfg_(cfg), cluster_(cluster_config(cfg)) {
  cfg_.node.delta = cfg_.delays.delta;
  cfg_.node.sigma = cfg_.sched.sigma;
  cfg_.node.clock.perfect = cfg_.perfect_clocks;
  cfg_.node.clock.rho = cfg_.rho;
  cfg_.node.clock.min_delay = cfg_.delays.min_delay;

  const auto n = static_cast<std::size_t>(cfg_.n);
  delivered_.resize(n);
  views_.resize(n);
  lineage_.resize(n);
  lineage_floor_.resize(n, 0);

  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg_.n); ++p) {
    AppCallbacks app;
    app.deliver = [this, p](const bcast::Proposal& prop, Ordinal o) {
      // Idempotent apply at the crash boundary: after a recovery the
      // engine redelivers at-least-once (the durable watermark may trail
      // the deliveries the application already absorbed), so an update
      // that is already part of the pre-crash application state is a
      // replay, not a new delivery. Only entries below the last crash's
      // floor qualify — duplicates within one incarnation stay visible.
      const std::size_t floor =
          std::min(lineage_floor_[p], lineage_[p].size());
      for (std::size_t i = 0; i < floor; ++i) {
        const auto& e = lineage_[p][i];
        if (e.pid == prop.id && e.ordinal == o) return;
      }
      DeliveryRecord rec;
      rec.pid = prop.id;
      rec.ordinal = o;
      rec.payload = prop.payload;
      rec.order = prop.order;
      rec.atomicity = prop.atomicity;
      rec.at = cluster_.now();
      delivered_[p].push_back(std::move(rec));
      lineage_[p].push_back(LineageEntry{prop.id, o, prop.order});
    };
    app.view_change = [this, p](GroupId gid, util::ProcessSet members) {
      views_[p].push_back(ViewRecord{gid, members, cluster_.now()});
    };
    // The application "state" is the full lineage; a state transfer
    // replaces it wholesale, exactly like a replicated app's state.
    app.get_state = [this, p] {
      util::ByteWriter w;
      w.var_u64(lineage_[p].size());
      for (const auto& e : lineage_[p]) {
        w.u32(e.pid.proposer);
        w.var_u64(e.pid.seq);
        w.var_u64(e.ordinal);
        w.u8(static_cast<std::uint8_t>(e.order));
      }
      return std::move(w).take();
    };
    app.set_state = [this, p](std::span<const std::byte> bytes) {
      util::ByteReader r(bytes);
      const std::uint64_t count = r.var_u64();
      std::vector<LineageEntry> fresh;
      fresh.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        LineageEntry e;
        e.pid.proposer = r.u32();
        e.pid.seq = static_cast<ProposalSeq>(r.var_u64());
        e.ordinal = r.var_u64();
        e.order = static_cast<bcast::Order>(r.u8());
        fresh.push_back(e);
      }
      lineage_[p] = std::move(fresh);
    };
    store::StableStore* st = nullptr;
    store::MemStorage* mem = nullptr;
    if (cfg_.durable_store) {
      mem_.push_back(std::make_unique<store::MemStorage>());
      stores_.push_back(std::make_unique<store::StableStore>(
          *mem_.back(), "p" + std::to_string(p)));
      st = stores_.back().get();
      mem = mem_.back().get();
    }
    // A crash loses the storage's unsynced write-back tail, exactly like
    // power loss under a real page cache — and marks the lineage floor so
    // the idempotent-apply dedup above knows which entries predate it.
    cluster_.processes().set_crash_hook(p, [this, p, mem] {
      if (mem != nullptr) mem->crash();
      lineage_floor_[p] = lineage_[p].size();
    });
    nodes_.push_back(std::make_unique<TimewheelNode>(cluster_.endpoint(p),
                                                     cfg_.node, app, st));
    cluster_.bind(p, *nodes_.back());
  }
}

SimHarness::~SimHarness() = default;

bool SimHarness::run_until_group(util::ProcessSet members,
                                 sim::SimTime deadline) {
  const sim::Duration step = sim::msec(10);
  while (now() < deadline) {
    run_for(step);
    bool ok = true;
    GroupId gid = 0;
    for (ProcessId p : members) {
      auto& node = *nodes_[p];
      if (!cluster_.processes().is_up(p) || !node.in_group() ||
          !(node.group() == members)) {
        ok = false;
        break;
      }
      if (gid == 0) gid = node.group_id();
      if (node.group_id() != gid) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

void SimHarness::propose(ProcessId p, std::uint64_t tag, bcast::Order order,
                         bcast::Atomicity atomicity) {
  (void)try_propose(p, tag, order, atomicity);
}

ProposeResult SimHarness::try_propose(ProcessId p, std::uint64_t tag,
                                      bcast::Order order,
                                      bcast::Atomicity atomicity) {
  util::ByteWriter w;
  w.u64(tag);
  return nodes_.at(p)->try_propose(std::move(w).take(), order, atomicity);
}

std::uint64_t SimHarness::payload_tag(const std::vector<std::byte>& payload) {
  if (payload.size() < 8) return 0;
  util::ByteReader r(payload);
  return r.u64();
}

std::vector<std::string> SimHarness::check_view_agreement() const {
  std::vector<std::string> errors;
  std::map<GroupId, util::ProcessSet> seen;
  for (const auto& r :
       cluster_.trace_log().of_kind(sim::TraceKind::view_installed)) {
    const auto [it, inserted] = seen.try_emplace(r.a, r.set);
    if (!inserted && !(it->second == r.set)) {
      errors.push_back("view disagreement for gid " + std::to_string(r.a) +
                       ": " + it->second.to_string() + " vs " +
                       r.set.to_string() + " (p" + std::to_string(r.p) +
                       " at t=" + std::to_string(r.t) + ")");
    }
  }
  return errors;
}

std::vector<std::string> SimHarness::check_single_decider() const {
  std::vector<std::string> errors;
  std::map<GroupId, ProcessId> creators;
  for (const auto& r :
       cluster_.trace_log().of_kind(sim::TraceKind::group_created)) {
    const auto [it, inserted] = creators.try_emplace(r.a, r.p);
    if (!inserted && it->second != r.p) {
      errors.push_back("two creators for gid " + std::to_string(r.a) + ": p" +
                       std::to_string(it->second) + " and p" +
                       std::to_string(r.p));
    }
  }
  std::map<std::pair<GroupId, std::uint64_t>, ProcessId> decision_senders;
  for (const auto& r :
       cluster_.trace_log().of_kind(sim::TraceKind::decision_sent)) {
    const auto key = std::make_pair(r.a, r.b);
    const auto [it, inserted] = decision_senders.try_emplace(key, r.p);
    if (!inserted && it->second != r.p) {
      errors.push_back("decision (gid=" + std::to_string(r.a) +
                       ",no=" + std::to_string(r.b) + ") sent by both p" +
                       std::to_string(it->second) + " and p" +
                       std::to_string(r.p));
    }
  }
  return errors;
}

std::vector<std::string> SimHarness::check_majority() const {
  std::vector<std::string> errors;
  for (const auto& r :
       cluster_.trace_log().of_kind(sim::TraceKind::view_installed)) {
    if (!r.set.is_majority_of(cfg_.n)) {
      errors.push_back("group " + std::to_string(r.a) + " = " +
                       r.set.to_string() + " is not a majority of " +
                       std::to_string(cfg_.n));
    }
    if (!r.set.contains(r.p)) {
      errors.push_back("p" + std::to_string(r.p) +
                       " installed a view that excludes itself: gid " +
                       std::to_string(r.a));
    }
  }
  return errors;
}

void DeliverySafety::member(ProcessId p) {
  p_ = p;
  times_.clear();
  last_total_seq_.clear();
}

void DeliverySafety::record(const bcast::ProposalId& pid, Ordinal ordinal,
                            bcast::Order order) {
  auto who = [this] { return prefix_ + "p" + std::to_string(p_); };
  auto name = [](const bcast::ProposalId& id) {
    return std::to_string(id.proposer) + "." + std::to_string(id.seq);
  };
  if (++times_[pid] > 1)
    errors_.push_back(who() + " delivered " + name(pid) + " twice");
  if (ordinal != kNoOrdinal) {
    const auto [it, inserted] = by_ordinal_.try_emplace(ordinal, pid);
    if (!inserted && !(it->second == pid))
      errors_.push_back(prefix_ + "ordinal conflict at " +
                        std::to_string(ordinal) + " (" + who() +
                        " delivered " + name(pid) + ", another member has " +
                        name(it->second) + ")");
  }
  if (order != bcast::Order::total) return;
  const auto [it, inserted] =
      last_total_seq_.try_emplace(pid.proposer, pid.seq);
  if (!inserted && pid.seq <= it->second)
    errors_.push_back(who() + " FIFO violation: " + name(pid) +
                      " after seq " + std::to_string(it->second));
  it->second = pid.seq;
}

std::vector<std::string> SimHarness::check_delivery_safety() const {
  DeliverySafety check;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg_.n); ++p) {
    check.member(p);
    for (const auto& rec : delivered_[p])
      check.record(rec.pid, rec.ordinal, rec.order);
  }
  return check.errors();
}

std::pair<std::uint64_t, std::uint64_t> SimHarness::app_state(
    ProcessId p) const {
  std::uint64_t hash = 0;
  for (const auto& e : lineage_.at(p))
    hash += mix((static_cast<std::uint64_t>(e.pid.proposer) << 32) +
                (e.pid.seq * 0x9e3779b97f4a7c15ULL));
  return {lineage_.at(p).size(), hash};
}

std::vector<std::string> SimHarness::check_lineage_agreement(
    util::ProcessSet members) const {
  DeliverySafety check("lineage ");
  for (ProcessId p : members) {
    check.member(p);
    for (const auto& e : lineage_.at(p)) check.record(e.pid, e.ordinal, e.order);
  }
  return check.errors();
}

std::vector<std::string> SimHarness::check_all_invariants() const {
  std::vector<std::string> errors;
  for (auto&& chunk :
       {check_view_agreement(), check_single_decider(), check_majority(),
        check_delivery_safety()})
    errors.insert(errors.end(), chunk.begin(), chunk.end());
  return errors;
}

std::vector<std::string> SimHarness::check_majority_agreement_invariants(
    util::ProcessSet final_members) const {
  std::vector<std::string> errors;
  for (auto&& chunk :
       {check_view_agreement(), check_single_decider(), check_majority(),
        check_lineage_agreement(final_members)})
    errors.insert(errors.end(), chunk.begin(), chunk.end());
  return errors;
}

}  // namespace tw::gms
