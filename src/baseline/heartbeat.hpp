// Heartbeat membership — the conventional comparator (JGroups/Spread
// lineage) for the paper's failure-free-cost and recovery-latency claims.
//
// Every member broadcasts a heartbeat every 30 ms; a member silent for
// three periods is suspected. The lowest-id unsuspected member acts as
// coordinator and drives a two-phase view change (PROPOSE → ACK from a
// majority → COMMIT). Contrast with the timewheel protocol:
//  - failure-free cost: Θ(N) heartbeats per period, i.e. Θ(N²) datagrams —
//    the timewheel membership layer sends zero;
//  - a false suspicion triggers a full view change (the suspect is dropped
//    and must rejoin) — the timewheel masks it in wrong-suspicion state.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/msg_kind.hpp"
#include "net/transport.hpp"
#include "util/bytes.hpp"

namespace tw::baseline {

class HeartbeatMembership final : public net::Handler {
 public:
  using ViewCallback = std::function<void(std::uint64_t view_id,
                                          util::ProcessSet members)>;

  explicit HeartbeatMembership(net::Endpoint& endpoint,
                               ViewCallback on_view = {});

  void on_start() override;
  void on_datagram(ProcessId from, std::span<const std::byte> data) override;

  [[nodiscard]] bool in_group() const {
    return view_id_ > 0 && members_.contains(ep_.self());
  }
  [[nodiscard]] std::uint64_t view_id() const { return view_id_; }
  [[nodiscard]] util::ProcessSet members() const { return members_; }
  [[nodiscard]] ProcessId coordinator() const;

 private:
  struct ViewProposal {
    std::uint64_t view_id = 0;
    util::ProcessSet members;
    util::ProcessSet acks;
    sim::ClockTime proposed_at = 0;
    bool active = false;
  };

  void tick();
  void send_heartbeat();
  [[nodiscard]] util::ProcessSet alive(sim::ClockTime now) const;
  void maybe_change_view(sim::ClockTime now);
  void install(std::uint64_t view_id, util::ProcessSet members);

  void handle_heartbeat(ProcessId from, util::ByteReader& r);
  void handle_proposal(ProcessId from, util::ByteReader& r);
  void handle_ack(ProcessId from, util::ByteReader& r);
  void handle_commit(ProcessId from, util::ByteReader& r);

  net::Endpoint& ep_;
  ViewCallback on_view_;
  int n_;

  std::uint64_t view_id_ = 0;
  util::ProcessSet members_;
  std::vector<sim::ClockTime> last_heard_;
  ViewProposal proposal_;
  net::TimerId tick_timer_ = net::kNoTimer;
};

}  // namespace tw::baseline
