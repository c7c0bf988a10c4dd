#include "gms/group_runtime.hpp"

#include <utility>

#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/buffer_pool.hpp"
#include "util/bytes.hpp"

namespace tw::gms {

// ---------------------------------------------------------------------------
// GroupEndpoint
// ---------------------------------------------------------------------------

GroupEndpoint::GroupEndpoint(GroupRuntime& rt, net::GroupTag tag)
    : rt_(rt), tag_(tag) {}

ProcessId GroupEndpoint::self() const { return rt_.ep_.self(); }
int GroupEndpoint::team_size() const { return rt_.ep_.team_size(); }
sim::ClockTime GroupEndpoint::hw_now() const { return rt_.ep_.hw_now(); }

std::vector<std::byte> GroupEndpoint::maybe_wrap(
    std::vector<std::byte> data) {
  if (tag_ == 0) return data;  // legacy path: bytes unchanged
  std::vector<std::byte> wrapped = net::wrap_group_frame(tag_, data);
  // The inner encode's buffer did its job; recycle it for the next encode.
  util::BufferPool::local().release(std::move(data));
  return wrapped;
}

void GroupEndpoint::broadcast(std::vector<std::byte> data) {
  ++rt_.groups_.at(tag_)->stats.tx;
  rt_.ep_.broadcast(maybe_wrap(std::move(data)));
}

void GroupEndpoint::send(ProcessId to, std::vector<std::byte> data) {
  ++rt_.groups_.at(tag_)->stats.tx;
  rt_.ep_.send(to, maybe_wrap(std::move(data)));
}

net::TimerId GroupEndpoint::set_timer_at_hw(sim::ClockTime target,
                                            std::function<void()> fn) {
  return rt_.ep_.set_timer_at_hw(target, std::move(fn));
}

net::TimerId GroupEndpoint::set_timer_after(sim::Duration d,
                                            std::function<void()> fn) {
  return rt_.ep_.set_timer_after(d, std::move(fn));
}

void GroupEndpoint::cancel_timer(net::TimerId id) {
  rt_.ep_.cancel_timer(id);
}

obs::Recorder* GroupEndpoint::obs() { return rt_.ep_.obs(); }

std::string GroupEndpoint::obs_scope() const {
  return "g" + std::to_string(tag_) + ".p" + std::to_string(self());
}

void GroupEndpoint::trace(sim::TraceKind kind, std::uint64_t a,
                          std::uint64_t b, util::ProcessSet set,
                          std::string note) {
  rt_.ep_.trace(kind, a, b, set, std::move(note));
}

// ---------------------------------------------------------------------------
// GroupRuntime
// ---------------------------------------------------------------------------

GroupRuntime::GroupRuntime(net::Endpoint& endpoint, GroupRuntimeConfig cfg)
    : ep_(endpoint), cfg_(cfg) {
  if (obs::Recorder* rec = ep_.obs()) {
    if (obs::Registry* reg = rec->registry()) {
      stats_source_ = reg->register_source(
          [this](std::map<std::string, std::uint64_t>& out) {
            out["runtime.groups"] = groups_.size();
            out["runtime.demux_total"] = demux_total_;
            out["runtime.demux_legacy"] = demux_legacy_;
            out["runtime.demux_unknown_tag"] = demux_unknown_;
            out["runtime.demux_malformed"] = demux_malformed_;
            for (const auto& [tag, g] : groups_) {
              const std::string p =
                  "runtime.g" + std::to_string(tag) + '.';
              out[p + "rx"] = g->stats.rx;
              out[p + "tx"] = g->stats.tx;
              out[p + "routed"] = g->stats.routed;
              out[p + "budget_refused"] = g->stats.budget_refused;
              out[p + "admission_refused"] = g->stats.admission_refused;
              out[p + "budget_used_bytes"] = g->stats.budget_used;
              out[p + "rx_dropped"] = g->stats.rx_dropped;
            }
          });
    }
  }
}

GroupRuntime::~GroupRuntime() {
  if (stats_source_ != 0) {
    if (obs::Recorder* rec = ep_.obs())
      if (obs::Registry* reg = rec->registry())
        reg->unregister_source(stats_source_);
  }
}

TimewheelNode& GroupRuntime::add_group(net::GroupTag tag,
                                       const NodeConfig& cfg,
                                       AppCallbacks app,
                                       store::StableStore* store) {
  TW_ASSERT_MSG(groups_.find(tag) == groups_.end(),
                "duplicate group tag in runtime");
  auto group = std::make_unique<Group>(*this, tag);
  Group* g = group.get();
  g->budget_bytes = cfg_.group_budget_bytes;
  // Credit the budget when an OWN proposal comes back delivered: the bytes
  // have cleared this group's pipeline and no longer count against it.
  auto user_deliver = std::move(app.deliver);
  const ProcessId me = ep_.self();
  app.deliver = [this, g, me,
                 user_deliver = std::move(user_deliver)](
                    const bcast::Proposal& p, Ordinal ordinal) {
    if (p.id.proposer == me) {
      const std::size_t sz = p.payload.size();
      g->stats.budget_used -= std::min(g->stats.budget_used, sz);
    }
    if (user_deliver) user_deliver(p, ordinal);
  };
  group->node =
      std::make_unique<TimewheelNode>(g->ep, cfg, std::move(app), store);
  TimewheelNode& node = *group->node;
  groups_.emplace(tag, std::move(group));
  router_.add_group(tag);
  return node;
}

void GroupRuntime::on_start() {
  for (auto& [tag, g] : groups_) g->node->on_start();
}

void GroupRuntime::on_datagram(ProcessId from,
                               std::span<const std::byte> data) {
  ++demux_total_;
  net::GroupFrame gf;
  try {
    gf = net::decode_group_frame(data);
  } catch (const util::DecodeError&) {
    ++demux_malformed_;
    return;
  }
  if (gf.payload.size() == data.size()) ++demux_legacy_;
  const auto it = groups_.find(gf.tag);
  if (it == groups_.end()) {
    ++demux_unknown_;
    return;
  }
  Group& g = *it->second;
  if (g.drop_inbound) {
    ++g.stats.rx_dropped;
    return;
  }
  ++g.stats.rx;
  g.node->on_datagram(from, gf.payload);
}

std::optional<ProposalSeq> GroupRuntime::propose(net::GroupTag tag,
                                                 std::vector<std::byte> payload,
                                                 bcast::Order order,
                                                 bcast::Atomicity atomicity) {
  Group& g = *groups_.at(tag);
  const std::size_t sz = payload.size();
  if (g.budget_bytes != 0 && g.stats.budget_used + sz > g.budget_bytes) {
    ++g.stats.budget_refused;
    return std::nullopt;
  }
  // The node's own admission control (NodeConfig::max_pending) can refuse
  // too; only a *accepted* proposal charges the group budget.
  const ProposeResult r = g.node->try_propose(std::move(payload), order,
                                              atomicity);
  if (!r.accepted) {
    ++g.stats.admission_refused;
    return std::nullopt;
  }
  g.stats.budget_used += sz;
  return r.seq;
}

std::optional<std::pair<net::GroupTag, ProposalSeq>>
GroupRuntime::propose_keyed(std::uint64_t key, std::vector<std::byte> payload,
                            bcast::Order order, bcast::Atomicity atomicity) {
  const net::GroupTag tag = router_.route(key);
  ++groups_.at(tag)->stats.routed;
  const auto seq = propose(tag, std::move(payload), order, atomicity);
  if (!seq) return std::nullopt;
  return std::make_pair(tag, *seq);
}

std::vector<net::GroupTag> GroupRuntime::tags() const {
  std::vector<net::GroupTag> out;
  out.reserve(groups_.size());
  for (const auto& [tag, g] : groups_) out.push_back(tag);
  return out;
}

void GroupRuntime::set_inbound_drop(net::GroupTag tag, bool drop) {
  groups_.at(tag)->drop_inbound = drop;
}

}  // namespace tw::gms
