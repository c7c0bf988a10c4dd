// Unit tests for the gms building blocks: slot arithmetic, the failure
// detector, and the membership message codecs.
#include <gtest/gtest.h>

#include "gms/failure_detector.hpp"
#include "gms/messages.hpp"
#include "gms/slots.hpp"

namespace tw::gms {
namespace {

// ---------------------------------------------------------------------------
// SlotMap
// ---------------------------------------------------------------------------

TEST(SlotMap, BasicsAndOwnership) {
  SlotMap sm(5, 60000);
  EXPECT_EQ(sm.cycle_len(), 300000);
  EXPECT_EQ(sm.slot_index(0), 0);
  EXPECT_EQ(sm.slot_index(59999), 0);
  EXPECT_EQ(sm.slot_index(60000), 1);
  EXPECT_EQ(sm.owner(0), 0u);
  EXPECT_EQ(sm.owner(4), 4u);
  EXPECT_EQ(sm.owner(5), 0u);
  EXPECT_EQ(sm.slot_start(7), 420000);
}

TEST(SlotMap, NextSlotStartIsStrictlyFuture) {
  SlotMap sm(3, 1000);
  // At t=0 (inside slot 0, owned by 0) the next slot of 0 is slot 3.
  EXPECT_EQ(sm.next_slot_start(0, 0), 3000);
  EXPECT_EQ(sm.next_slot_start(1, 0), 1000);
  EXPECT_EQ(sm.next_slot_start(2, 0), 2000);
  // Just before a boundary.
  EXPECT_EQ(sm.next_slot_start(1, 999), 1000);
  // Exactly at the boundary: the slot has begun; next one is a cycle later.
  EXPECT_EQ(sm.next_slot_start(1, 1000), 4000);
}

TEST(SlotMap, NextSlotStartCyclesForever) {
  SlotMap sm(4, 500);
  sim::ClockTime t = 123;
  for (int i = 0; i < 50; ++i) {
    const sim::ClockTime next = sm.next_slot_start(2, t);
    EXPECT_GT(next, t);
    EXPECT_EQ(sm.owner(sm.slot_index(next)), 2u);
    t = next;
  }
}

TEST(SlotMap, LastSlotOf) {
  SlotMap sm(3, 1000);
  // Slot 7 is owned by 1; the most recent slot of 0 at-or-before 7 is 6.
  EXPECT_EQ(sm.last_slot_of(0, 7), 6);
  EXPECT_EQ(sm.last_slot_of(1, 7), 7);
  EXPECT_EQ(sm.last_slot_of(2, 7), 5);
}

TEST(SlotMap, InLastSlotOf) {
  SlotMap sm(3, 1000);
  // Observer evaluates at the start of slot 6 (owner 0). Sender 2's last
  // slot before 6 is slot 5 [5000, 6000).
  EXPECT_TRUE(sm.in_last_slot_of(2, 5500, 6));
  EXPECT_FALSE(sm.in_last_slot_of(2, 2500, 6));  // a cycle too old
  EXPECT_FALSE(sm.in_last_slot_of(2, 4500, 6));  // not 2's slot
  EXPECT_FALSE(sm.in_last_slot_of(2, -5, 6));    // invalid timestamp
}

// ---------------------------------------------------------------------------
// FailureDetector
// ---------------------------------------------------------------------------

TEST(FailureDetector, AliveListWindowsOut) {
  FailureDetector fd(0, 5, 1000);  // N=5, slot 1ms → window 5ms
  EXPECT_EQ(fd.alive_list(0), util::ProcessSet({0}));  // always self
  fd.note_control(2, 10, 100);
  fd.note_control(3, 20, 200);
  EXPECT_EQ(fd.alive_list(300), util::ProcessSet({0, 2, 3}));
  // 2's last receipt ages beyond N slots.
  EXPECT_EQ(fd.alive_list(5150), util::ProcessSet({0, 3}));
  EXPECT_EQ(fd.alive_list(99999), util::ProcessSet({0}));
}

TEST(FailureDetector, DuplicateFilter) {
  FailureDetector fd(0, 3, 1000);
  EXPECT_TRUE(fd.newer_than_seen(1, 50));
  fd.note_control(1, 50, 60);
  EXPECT_FALSE(fd.newer_than_seen(1, 50));
  EXPECT_FALSE(fd.newer_than_seen(1, 40));
  EXPECT_TRUE(fd.newer_than_seen(1, 51));
}

TEST(FailureDetector, ExpectationLifecycle) {
  FailureDetector fd(0, 3, 1000);
  EXPECT_FALSE(fd.expecting());
  fd.expect(1, 100, 300);
  EXPECT_TRUE(fd.expecting());
  EXPECT_EQ(fd.expected_sender(), 1u);
  EXPECT_EQ(fd.deadline(), 300);
  EXPECT_EQ(fd.base_ts(), 100);
  EXPECT_FALSE(fd.expectation_met());
  fd.note_control(1, 150, 160);
  EXPECT_TRUE(fd.expectation_met());
  fd.clear_expectation();
  EXPECT_FALSE(fd.expecting());
}

TEST(FailureDetector, ExpectationNotMetByOldTimestamp) {
  FailureDetector fd(0, 3, 1000);
  fd.note_control(1, 90, 95);
  fd.expect(1, 100, 300);
  EXPECT_FALSE(fd.expectation_met());  // 90 <= base 100
}

TEST(FailureDetector, PeerAliveLists) {
  FailureDetector fd(0, 5, 1000);
  fd.note_peer_alive_list(2, util::ProcessSet({1, 2, 4}), 500);
  EXPECT_EQ(fd.peer_alive_list(2), util::ProcessSet({1, 2, 4}));
  EXPECT_EQ(fd.peer_alive_age(2, 700), 200);
  EXPECT_EQ(fd.peer_alive_age(3, 700), sim::kNever);
}

TEST(FailureDetector, ResetClearsEverything) {
  FailureDetector fd(0, 3, 1000);
  fd.note_control(1, 50, 60);
  fd.expect(1, 100, 300);
  fd.reset();
  EXPECT_FALSE(fd.expecting());
  EXPECT_EQ(fd.alive_list(61), util::ProcessSet({0}));
  EXPECT_TRUE(fd.newer_than_seen(1, 50));
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

bcast::Oal small_oal() {
  bcast::Oal oal;
  bcast::Proposal p;
  p.id = {2, 77};
  p.order = bcast::Order::total;
  p.atomicity = bcast::Atomicity::strong;
  p.hdo = 3;
  p.send_ts = 999;
  oal.append_update(p, util::ProcessSet({0, 2}));
  return oal;
}

template <typename Msg>
Msg round_trip(const Msg& in, net::MsgKind expected_kind) {
  const auto bytes = in.encode();
  util::ByteReader r(bytes);
  EXPECT_EQ(static_cast<net::MsgKind>(r.u8()), expected_kind);
  return Msg::decode(r);
}

TEST(GmsMessages, NoDecisionRoundTrip) {
  NoDecision m;
  m.suspect = 3;
  m.gid = 42;
  m.send_ts = 123456;
  m.last_decision_ts = 123000;
  m.alive = util::ProcessSet({0, 1, 2});
  m.view = small_oal();
  m.dpd = {{1, 5}, {2, 9}};
  const auto out = round_trip(m, net::MsgKind::no_decision);
  EXPECT_EQ(out.suspect, 3u);
  EXPECT_EQ(out.gid, 42u);
  EXPECT_EQ(out.send_ts, 123456);
  EXPECT_EQ(out.last_decision_ts, 123000);
  EXPECT_EQ(out.alive, util::ProcessSet({0, 1, 2}));
  EXPECT_EQ(out.view.size(), 1u);
  ASSERT_EQ(out.dpd.size(), 2u);
  EXPECT_EQ(out.dpd[1], (bcast::ProposalId{2, 9}));
}

TEST(GmsMessages, JoinRoundTrip) {
  Join m;
  m.send_ts = 5555;
  m.join_list = util::ProcessSet({1, 4});
  m.last_decision_ts = 4444;
  const auto out = round_trip(m, net::MsgKind::join);
  EXPECT_EQ(out.send_ts, 5555);
  EXPECT_EQ(out.join_list, util::ProcessSet({1, 4}));
  EXPECT_EQ(out.last_decision_ts, 4444);
}

TEST(GmsMessages, ReconfigurationRoundTrip) {
  Reconfiguration m;
  m.send_ts = 7777;
  m.recon_list = util::ProcessSet({0, 2, 3});
  m.last_decision_ts = 7000;
  m.last_gid = 9;
  m.last_group = util::ProcessSet({0, 1, 2, 3});
  m.alive = util::ProcessSet({0, 2, 3});
  m.view = small_oal();
  m.dpd = {{0, 1}};
  EXPECT_FALSE(m.abstaining());
  const auto out = round_trip(m, net::MsgKind::reconfiguration);
  EXPECT_EQ(out.recon_list, m.recon_list);
  EXPECT_EQ(out.last_gid, 9u);
  EXPECT_EQ(out.last_group, m.last_group);
  EXPECT_EQ(out.view.size(), 1u);
  ASSERT_EQ(out.dpd.size(), 1u);
}

TEST(GmsMessages, AbstainingReconfiguration) {
  Reconfiguration m;
  m.send_ts = 1;
  EXPECT_TRUE(m.abstaining());
  const auto out = round_trip(m, net::MsgKind::reconfiguration);
  EXPECT_TRUE(out.abstaining());
}

TEST(GmsMessages, StateTransferRoundTrip) {
  StateTransfer m;
  m.gid = 11;
  m.send_ts = 2222;
  m.app_state = {std::byte{1}, std::byte{2}, std::byte{3}};
  bcast::Proposal p;
  p.id = {1, 9};
  p.order = bcast::Order::time;
  p.atomicity = bcast::Atomicity::strict;
  p.send_ts = 500;
  p.payload = {std::byte{0x42}};
  m.proposals.push_back(p);
  m.oal = small_oal();
  m.marks.delivered_below = 17;
  m.marks.delivered = {{2, 77}};
  m.marks.ordered_below = {{1, 9}, {2, 77}};
  m.marks.forgotten_below = {{0, 4}};
  const auto out = round_trip(m, net::MsgKind::state_transfer);
  EXPECT_EQ(out.gid, 11u);
  EXPECT_EQ(out.app_state.size(), 3u);
  ASSERT_EQ(out.proposals.size(), 1u);
  EXPECT_EQ(out.proposals[0].id, (bcast::ProposalId{1, 9}));
  EXPECT_EQ(out.proposals[0].order, bcast::Order::time);
  EXPECT_EQ(out.proposals[0].payload[0], std::byte{0x42});
  EXPECT_EQ(out.marks.delivered_below, 17u);
  ASSERT_EQ(out.marks.ordered_below.size(), 2u);
  EXPECT_EQ(out.marks.ordered_below[1].second, 77u);
  ASSERT_EQ(out.marks.forgotten_below.size(), 1u);
}

TEST(GmsMessages, RejoinRequestRoundTrip) {
  RejoinRequest m;
  m.send_ts = 987654;
  const auto out = round_trip(m, net::MsgKind::rejoin_request);
  EXPECT_EQ(out.send_ts, 987654);
}

TEST(BcastMessages, DecisionRoundTrip) {
  bcast::Decision d;
  d.gid = 4;
  d.group = util::ProcessSet({0, 1, 2});
  d.decision_no = 900;
  d.decider = 1;
  d.send_ts = 31337;
  d.alive = util::ProcessSet({0, 1, 2, 4});
  d.joiners = util::ProcessSet({4});
  d.oal = small_oal();
  const auto bytes = d.encode();
  util::ByteReader r(bytes);
  EXPECT_EQ(static_cast<net::MsgKind>(r.u8()), net::MsgKind::decision);
  const auto out = bcast::Decision::decode(r);
  EXPECT_EQ(out.gid, 4u);
  EXPECT_EQ(out.group, d.group);
  EXPECT_EQ(out.decision_no, 900u);
  EXPECT_EQ(out.decider, 1u);
  EXPECT_EQ(out.send_ts, 31337);
  EXPECT_EQ(out.joiners, util::ProcessSet({4}));
  EXPECT_EQ(out.oal.size(), 1u);
}

TEST(BcastMessages, ProposalRoundTrip) {
  bcast::Proposal p;
  p.id = {3, 123456789012ULL};
  p.order = bcast::Order::time;
  p.atomicity = bcast::Atomicity::strong;
  p.hdo = 55;
  p.send_ts = -1;  // pre-sync timestamps are representable
  p.payload = {std::byte{9}, std::byte{8}};
  const auto bytes = bcast::encode_proposal(p);
  util::ByteReader r(bytes);
  EXPECT_EQ(static_cast<net::MsgKind>(r.u8()), net::MsgKind::proposal);
  const auto out = bcast::decode_proposal(r);
  EXPECT_EQ(out.id, p.id);
  EXPECT_EQ(out.order, p.order);
  EXPECT_EQ(out.atomicity, p.atomicity);
  EXPECT_EQ(out.hdo, 55u);
  EXPECT_EQ(out.send_ts, -1);
  EXPECT_EQ(out.payload, p.payload);
}

TEST(BcastMessages, RetransmitRequestRoundTrip) {
  bcast::RetransmitRequest rq;
  rq.wanted = {{0, 1}, {5, 99}};
  const auto bytes = rq.encode();
  util::ByteReader r(bytes);
  EXPECT_EQ(static_cast<net::MsgKind>(r.u8()),
            net::MsgKind::retransmit_request);
  const auto out = bcast::RetransmitRequest::decode(r);
  ASSERT_EQ(out.wanted.size(), 2u);
  EXPECT_EQ(out.wanted[1], (bcast::ProposalId{5, 99}));
}

TEST(BcastMessages, TruncatedDecisionRejected) {
  bcast::Decision d;
  d.oal = small_oal();
  auto bytes = d.encode();
  bytes.resize(bytes.size() / 2);
  util::ByteReader r(bytes);
  r.u8();
  EXPECT_THROW(bcast::Decision::decode(r), util::DecodeError);
}

}  // namespace
}  // namespace tw::gms
