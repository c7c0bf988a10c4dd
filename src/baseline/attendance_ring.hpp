// Attendance-ring membership — an ablation baseline.
//
// Like the timewheel protocol it uses ring surveillance with minimal
// failure-free messages: a token circulates the ring, each member forwards
// it to its successor. Unlike the timewheel protocol it has NEITHER the
// single-failure fast path NOR the wrong-suspicion masking: ANY token
// timeout triggers a full coordinator-driven re-formation (every member
// announces itself, the lowest-id process commits a new view once a
// majority has announced). Benchmarks E2/E3 quantify what the paper's two
// optimizations buy relative to this design.
#pragma once

#include <functional>
#include <vector>

#include "net/msg_kind.hpp"
#include "net/transport.hpp"
#include "util/bytes.hpp"

namespace tw::baseline {

class AttendanceRing final : public net::Handler {
 public:
  using ViewCallback = std::function<void(std::uint64_t view_id,
                                          util::ProcessSet members)>;

  explicit AttendanceRing(net::Endpoint& endpoint, ViewCallback on_view = {});

  void on_start() override;
  void on_datagram(ProcessId from, std::span<const std::byte> data) override;

  [[nodiscard]] bool in_group() const {
    return view_id_ > 0 && members_.contains(ep_.self());
  }
  [[nodiscard]] std::uint64_t view_id() const { return view_id_; }
  [[nodiscard]] util::ProcessSet members() const { return members_; }
  [[nodiscard]] std::uint64_t reformations() const { return reformations_; }

 private:
  void enter_reformation();
  void announce();
  void watchdog();
  void forward_token_later(std::uint64_t token_seq);
  void install(std::uint64_t view_id, util::ProcessSet members);

  net::Endpoint& ep_;
  ViewCallback on_view_;
  int n_;

  std::uint64_t view_id_ = 0;
  util::ProcessSet members_;
  bool reforming_ = true;
  std::uint64_t reformations_ = 0;
  std::uint64_t last_token_seq_ = 0;
  sim::ClockTime last_token_time_ = -1;
  std::vector<sim::ClockTime> announced_;
  net::TimerId timer_ = net::kNoTimer;       ///< watchdog / announce
  net::TimerId hold_timer_ = net::kNoTimer;  ///< token forwarding
};

}  // namespace tw::baseline
