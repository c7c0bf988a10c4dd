#include "gms/runtime_harness.hpp"

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace tw::gms {

namespace {

net::SimClusterConfig cluster_config(const RuntimeHarnessConfig& cfg) {
  net::SimClusterConfig cc;
  cc.n = cfg.n;
  cc.seed = cfg.seed;
  cc.delays = cfg.delays;
  cc.sched = cfg.sched;
  cc.rho = cfg.perfect_clocks ? 0.0 : cfg.rho;
  cc.max_clock_offset = cfg.perfect_clocks ? 0 : cfg.max_clock_offset;
  return cc;
}

}  // namespace

RuntimeHarness::RuntimeHarness(RuntimeHarnessConfig cfg)
    : cfg_(cfg), cluster_(cluster_config(cfg)) {
  TW_ASSERT(cfg_.groups >= 1);
  cfg_.node.delta = cfg_.delays.delta;
  cfg_.node.sigma = cfg_.sched.sigma;
  cfg_.node.clock.perfect = cfg_.perfect_clocks;
  cfg_.node.clock.rho = cfg_.rho;
  cfg_.node.clock.min_delay = cfg_.delays.min_delay;

  const auto n = static_cast<std::size_t>(cfg_.n);
  const auto g = static_cast<std::size_t>(cfg_.groups);
  delivered_.assign(n, std::vector<std::vector<DeliveryRecord>>(g));
  views_.assign(n, std::vector<std::vector<ViewRecord>>(g));

  GroupRuntimeConfig rc;
  rc.group_budget_bytes = cfg_.group_budget_bytes;
  rc.router_vnodes = cfg_.router_vnodes;
  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg_.n); ++p) {
    runtimes_.push_back(
        std::make_unique<GroupRuntime>(cluster_.endpoint(p), rc));
    GroupRuntime& rt = *runtimes_.back();
    for (net::GroupTag tag = 0; tag < static_cast<net::GroupTag>(cfg_.groups);
         ++tag) {
      AppCallbacks app;
      app.deliver = [this, p, tag](const bcast::Proposal& prop, Ordinal o) {
        DeliveryRecord rec;
        rec.pid = prop.id;
        rec.ordinal = o;
        rec.payload = prop.payload;
        rec.order = prop.order;
        rec.atomicity = prop.atomicity;
        rec.at = cluster_.now();
        delivered_[p][tag].push_back(std::move(rec));
      };
      app.view_change = [this, p, tag](GroupId gid,
                                       util::ProcessSet members) {
        views_[p][tag].push_back(ViewRecord{gid, members, cluster_.now()});
      };
      rt.add_group(tag, cfg_.node, std::move(app));
    }
    cluster_.bind(p, rt);
  }
}

RuntimeHarness::~RuntimeHarness() = default;

std::uint64_t RuntimeHarness::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& per_group : delivered_)
    for (const auto& recs : per_group) total += recs.size();
  return total;
}

bool RuntimeHarness::run_until_all_groups(sim::SimTime deadline) {
  const util::ProcessSet all =
      util::ProcessSet::full(static_cast<ProcessId>(cfg_.n));
  const sim::Duration step = sim::msec(10);
  while (now() < deadline) {
    run_for(step);
    bool ok = true;
    for (net::GroupTag tag = 0;
         ok && tag < static_cast<net::GroupTag>(cfg_.groups); ++tag) {
      GroupId gid = 0;
      for (ProcessId p = 0; p < static_cast<ProcessId>(cfg_.n); ++p) {
        TimewheelNode& nd = node(p, tag);
        if (!cluster_.processes().is_up(p) || !nd.in_group() ||
            !(nd.group() == all)) {
          ok = false;
          break;
        }
        if (gid == 0) gid = nd.group_id();
        if (nd.group_id() != gid) {
          ok = false;
          break;
        }
      }
    }
    if (ok) return true;
  }
  return false;
}

bool RuntimeHarness::propose(ProcessId p, net::GroupTag tag,
                             std::uint64_t marker, bcast::Order order) {
  util::ByteWriter w;
  w.u64(marker);
  return runtimes_.at(p)
      ->propose(tag, std::move(w).take(), order)
      .has_value();
}

std::optional<net::GroupTag> RuntimeHarness::propose_key(
    ProcessId p, std::uint64_t key, std::uint64_t marker) {
  util::ByteWriter w;
  w.u64(marker);
  const auto res = runtimes_.at(p)->propose_keyed(key, std::move(w).take());
  if (!res) return std::nullopt;
  return res->first;
}

std::vector<std::string> RuntimeHarness::check_group(
    net::GroupTag tag) const {
  DeliverySafety check("g" + std::to_string(tag) + "/");
  for (ProcessId p = 0; p < static_cast<ProcessId>(cfg_.n); ++p) {
    check.member(p);
    for (const auto& rec : delivered_.at(p).at(tag))
      check.record(rec.pid, rec.ordinal, rec.order);
  }
  return check.errors();
}

std::vector<std::string> RuntimeHarness::check_all_groups() const {
  std::vector<std::string> errors;
  for (net::GroupTag tag = 0; tag < static_cast<net::GroupTag>(cfg_.groups);
       ++tag) {
    auto chunk = check_group(tag);
    errors.insert(errors.end(), chunk.begin(), chunk.end());
  }
  return errors;
}

}  // namespace tw::gms
