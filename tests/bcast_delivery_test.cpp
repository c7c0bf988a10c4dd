// Unit tests for the delivery engine: 3×3 delivery conditions, suspect
// marks, dpd/view bookkeeping, transfer marks, tombstones and the epoch
// fence's trace events.
#include "bcast/delivery.hpp"

#include <gtest/gtest.h>

namespace tw::bcast {
namespace {

constexpr sim::Duration kDeliverDelay = sim::msec(60);

struct Rig {
  ProcessId self;
  std::vector<std::pair<ProposalId, Ordinal>> delivered;
  DeliveryEngine engine;

  explicit Rig(ProcessId self_id = 0)
      : self(self_id),
        engine(self_id, kDeliverDelay, [this](const Proposal& p, Ordinal o) {
          delivered.emplace_back(p.id, o);
        }) {}

  static Proposal proposal(ProcessId proposer, ProposalSeq seq, Order order,
                           Atomicity atomicity, sim::ClockTime ts = 1000,
                           Ordinal hdo = 0) {
    Proposal p;
    p.id = {proposer, seq};
    p.order = order;
    p.atomicity = atomicity;
    p.send_ts = ts;
    p.hdo = hdo;
    p.payload = {std::byte{1}};
    return p;
  }
};

const util::ProcessSet kGroup({0, 1, 2});

TEST(Delivery, WeakUnorderedDeliversImmediately) {
  Rig rig;
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::unordered, Atomicity::weak), 1000);
  rig.engine.try_deliver(1000, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].second, kNoOrdinal);  // before any decision
  // It now shows up in dpd (delivered, undefined ordinal).
  EXPECT_EQ(rig.engine.dpd().size(), 1u);
}

TEST(Delivery, TotalOrderWaitsForOrdinal) {
  Rig rig;
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);
  rig.engine.try_deliver(1000, kGroup);
  EXPECT_TRUE(rig.delivered.empty());

  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].second, 0u);
}

TEST(Delivery, TotalOrderDeliversInOrdinalOrder) {
  Rig rig;
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  oal.append_update(Rig::proposal(2, 9, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  // Receive in reverse order: stream must still deliver 0 then 1.
  rig.engine.note_proposal(
      Rig::proposal(2, 9, Order::total, Atomicity::weak), 1000);
  rig.engine.try_deliver(1000, kGroup);
  EXPECT_TRUE(rig.delivered.empty());  // blocked on missing ordinal 0
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1001);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[0].second, 0u);
  EXPECT_EQ(rig.delivered[1].second, 1u);
}

TEST(Delivery, StrongAtomicityNeedsMajorityAcks) {
  Rig rig;
  const Proposal p =
      Rig::proposal(1, 5, Order::total, Atomicity::strong);
  rig.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, util::ProcessSet({1}));  // only proposer-side ack
  rig.engine.adopt_oal(oal);
  rig.engine.try_deliver(1000, kGroup);
  // acks = {1} ∪ {self=0} = 2 of 3: majority reached → delivers.
  ASSERT_EQ(rig.delivered.size(), 1u);
}

TEST(Delivery, StrongAtomicityBlocksBelowMajority) {
  Rig rig;
  const Proposal p =
      Rig::proposal(1, 5, Order::total, Atomicity::strong);
  rig.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, util::ProcessSet{});  // no acks at all
  rig.engine.adopt_oal(oal);
  const util::ProcessSet big_group({0, 1, 2, 3, 4});
  rig.engine.try_deliver(1000, big_group);
  EXPECT_TRUE(rig.delivered.empty());  // {0} is not a majority of 5
}

TEST(Delivery, StrictAtomicityNeedsAllAcks) {
  Rig rig;
  const Proposal p =
      Rig::proposal(1, 5, Order::total, Atomicity::strict);
  rig.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, util::ProcessSet({1}));
  rig.engine.adopt_oal(oal);
  rig.engine.try_deliver(1000, kGroup);
  EXPECT_TRUE(rig.delivered.empty());  // {0,1} ⊉ {0,1,2}
  Oal oal2;
  oal2.append_update(p, util::ProcessSet({1, 2}));
  rig.engine.adopt_oal(oal2);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
}

TEST(Delivery, TimeOrderReleasesAtSendTsPlusDelta) {
  Rig rig;
  const Proposal p = Rig::proposal(1, 5, Order::time, Atomicity::weak,
                                   /*ts=*/5000);
  rig.engine.note_proposal(p, 5001);
  Oal oal;
  oal.append_update(p, {});
  rig.engine.adopt_oal(oal);
  rig.engine.try_deliver(5001, kGroup);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.engine.next_release(5001), 5000 + kDeliverDelay);
  rig.engine.try_deliver(5000 + kDeliverDelay, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
}

TEST(Delivery, SuspectMarkBlocksDeliveryAndAck) {
  Rig rig;
  rig.engine.mark_suspect_sender(1, /*expiry=*/2000);
  // Proposal from the suspect arriving during the mark window.
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::unordered, Atomicity::weak), 1500);
  rig.engine.try_deliver(1500, kGroup);
  EXPECT_TRUE(rig.delivered.empty());
  // Not acknowledged in our view either.
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::unordered, Atomicity::weak),
                    {});
  rig.engine.adopt_oal(oal);
  const Oal view = rig.engine.view(1600);
  EXPECT_FALSE(view.find_ordinal(0)->acks.contains(0));
  // Mark expires after one cycle → deliverable again.
  rig.engine.try_deliver(2500, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_TRUE(rig.engine.view(2500).find_ordinal(0)->acks.contains(0));
}

TEST(Delivery, UndeliverableEntryNeverDelivered) {
  Rig rig;
  const Proposal p = Rig::proposal(1, 5, Order::total, Atomicity::weak);
  rig.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, {});
  oal.find_ordinal(0)->undeliverable = true;
  oal.append_update(Rig::proposal(2, 9, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(2, 9, Order::total, Atomicity::weak), 1001);
  rig.engine.try_deliver(1001, kGroup);
  // Entry 0 skipped (undeliverable), entry 1 delivered.
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].first, (ProposalId{2, 9}));
}

TEST(Delivery, ViewAddsOwnAcksForHeldProposals) {
  Rig rig;
  const Proposal p = Rig::proposal(1, 5, Order::total, Atomicity::weak);
  Oal oal;
  oal.append_update(p, util::ProcessSet({1}));
  rig.engine.adopt_oal(oal);
  EXPECT_FALSE(rig.engine.view(1000).find_ordinal(0)->acks.contains(0));
  rig.engine.note_proposal(p, 1000);
  EXPECT_TRUE(rig.engine.view(1000).find_ordinal(0)->acks.contains(0));
}

TEST(Delivery, ViewSelfAcksMembershipEntries) {
  Rig rig;
  Oal oal;
  oal.append_membership(9, util::ProcessSet({1, 2}), 100);
  rig.engine.adopt_oal(oal);
  EXPECT_TRUE(rig.engine.view(1000).find_ordinal(0)->acks.contains(0));
}

TEST(Delivery, MissingListsUnheldOalEntries) {
  Rig rig;
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  oal.append_update(Rig::proposal(2, 9, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);
  const auto missing = rig.engine.missing();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0]->pid, (ProposalId{2, 9}));
}

TEST(Delivery, DuplicateProposalIgnored) {
  Rig rig;
  const Proposal p = Rig::proposal(1, 5, Order::unordered, Atomicity::weak);
  EXPECT_TRUE(rig.engine.note_proposal(p, 1000));
  EXPECT_FALSE(rig.engine.note_proposal(p, 1001));
  rig.engine.try_deliver(1001, kGroup);
  EXPECT_EQ(rig.delivered.size(), 1u);
}

TEST(Delivery, TombstonePreventsRedeliveryAfterPurge) {
  Rig rig;
  const Proposal p = Rig::proposal(1, 5, Order::total, Atomicity::weak);
  rig.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, util::ProcessSet({0, 1, 2}));
  rig.engine.adopt_oal(oal);
  rig.engine.try_deliver(1000, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  // Entry purged from the window; late duplicate re-arrives.
  Oal purged;
  purged.seed_base(1);
  rig.engine.adopt_oal(purged);
  EXPECT_FALSE(rig.engine.note_proposal(p, 2000));
  rig.engine.try_deliver(2000, kGroup);
  EXPECT_EQ(rig.delivered.size(), 1u);  // still just the one delivery
}

TEST(Delivery, GapHoldsBackLaterProposalOfSameProposer) {
  Rig rig;
  const sim::Duration grace = sim::msec(300);
  // Proposer 1's seq 5 ordered already; seq 7 arrives but 6 is missing.
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(1, 7, Order::total, Atomicity::weak, /*ts=*/1000), 1000);
  EXPECT_TRUE(rig.engine.unordered_proposals(kGroup, 1050, grace, sim::sec(100)).empty());
  // Gap fills → both orderable, FIFO order.
  rig.engine.note_proposal(
      Rig::proposal(1, 6, Order::total, Atomicity::weak, /*ts=*/1000), 1100);
  const auto ready = rig.engine.unordered_proposals(kGroup, 1100, grace, sim::sec(100));
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0]->id.seq, 6u);
  EXPECT_EQ(ready[1]->id.seq, 7u);
}

TEST(Delivery, GapGivenUpAfterGrace) {
  Rig rig;
  const sim::Duration grace = sim::msec(300);
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(1, 7, Order::total, Atomicity::weak, /*ts=*/1000), 1000);
  // After the grace the gap is presumed a deliberate jump.
  const auto ready =
      rig.engine.unordered_proposals(kGroup, 1000 + grace + 1, grace, sim::sec(100));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0]->id.seq, 7u);
}

TEST(Delivery, ZeroFifoFloorIsKnownHistory) {
  // A proposer with no ordering history whose incarnation starts at seq 0
  // (floor 0): its seq 1 must wait for seq 0 like any other gap, or seq 1
  // is ordered first and seq 0 is forfeited on arrival.
  Rig rig;
  const sim::Duration grace = sim::msec(300);
  rig.engine.note_proposal(
      Rig::proposal(1, 1, Order::total, Atomicity::weak, /*ts=*/1000), 1000);
  EXPECT_TRUE(rig.engine.unordered_proposals(kGroup, 1050, grace, sim::sec(100))
                  .empty());
  rig.engine.note_proposal(
      Rig::proposal(1, 0, Order::total, Atomicity::weak, /*ts=*/1000), 1100);
  const auto ready =
      rig.engine.unordered_proposals(kGroup, 1100, grace, sim::sec(100));
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0]->id.seq, 0u);
  EXPECT_EQ(ready[1]->id.seq, 1u);
}

TEST(Delivery, StragglerBelowOrderedSeqSkippedWhileYoung) {
  Rig rig;
  const sim::Duration grace = sim::msec(300);
  Oal oal;
  oal.append_update(Rig::proposal(1, 9, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(1, 4, Order::total, Atomicity::weak, /*ts=*/1000), 1000);
  // Young copy below the ordered watermark: its binding may be in flight —
  // never ordered.
  EXPECT_TRUE(
      rig.engine.unordered_proposals(kGroup, 1100, grace, sim::sec(100))
          .empty());
}

TEST(Delivery, SurvivorBelowWatermarkIsForfeited) {
  // A survivor below the ordered watermark is never ordered, no matter how
  // long its proposer keeps it alive. This state is indistinguishable from
  // a grace-expired gap jump in the LIVE lineage (a decider ordered later
  // sequences past a loss-induced hole, then the hole-filler arrived): a
  // fresh binding here would place the earlier sequence after the
  // proposer's already-ordered later ones and invert FIFO for the whole
  // group. The torture engine found exactly that inversion; the update is
  // forfeited instead (delivered only if its binding surfaces in an
  // adopted oal window).
  Rig rig;
  const sim::Duration grace = sim::msec(300);
  Oal oal;
  oal.append_update(Rig::proposal(1, 9, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  rig.engine.note_proposal(
      Rig::proposal(1, 4, Order::total, Atomicity::weak, /*ts=*/1000), 1000);
  // The proposer keeps renewing it well past the grace window.
  const sim::ClockTime later = 1000 + grace + sim::msec(50);
  rig.engine.restamp_unordered(ProposalId{1, 4}, later);
  EXPECT_TRUE(rig.engine
                  .unordered_proposals(kGroup, later + sim::msec(10), grace,
                                       sim::sec(100))
                  .empty());
  // And the proposer itself stops re-broadcasting the forfeited update.
  EXPECT_TRUE(
      rig.engine.stale_unordered_from(1, later + sim::sec(10), sim::msec(1))
          .empty());
}

TEST(Delivery, TransferMarksPreventReorderAndRedeliver) {
  Rig sender(1), joiner(2);
  const Proposal p = Rig::proposal(0, 5, Order::total, Atomicity::weak);
  sender.engine.note_proposal(p, 1000);
  Oal oal;
  oal.append_update(p, util::ProcessSet({0, 1, 2}));
  sender.engine.adopt_oal(oal);
  sender.engine.try_deliver(1000, kGroup);

  const auto marks = sender.engine.export_transfer_marks();
  EXPECT_EQ(marks.delivered_below, 1u);
  ASSERT_EQ(marks.ordered_below.size(), 1u);
  EXPECT_EQ(marks.ordered_below[0].second, 5u);

  // Joiner buffered the raw proposal before joining.
  joiner.engine.note_proposal(p, 2000);
  joiner.engine.import_transfer_marks(marks);
  EXPECT_TRUE(
      joiner.engine.unordered_proposals(kGroup, 2000, 0, sim::sec(100)).empty());
  joiner.engine.try_deliver(2000, kGroup);
  EXPECT_TRUE(joiner.delivered.empty());
}

TEST(Delivery, DropUnorderedFromDeparted) {
  Rig rig;
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);
  rig.engine.note_proposal(
      Rig::proposal(2, 6, Order::total, Atomicity::weak), 1000);
  EXPECT_EQ(rig.engine.drop_unordered_from(util::ProcessSet({1})), 1);
  EXPECT_FALSE(rig.engine.have(ProposalId{1, 5}));
  EXPECT_TRUE(rig.engine.have(ProposalId{2, 6}));
}

TEST(Delivery, HighestKnownOrdinalTracksWindow) {
  Rig rig;
  EXPECT_EQ(rig.engine.highest_known_ordinal(), 0u);
  Oal oal;
  oal.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  oal.append_update(Rig::proposal(1, 6, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(oal);
  EXPECT_EQ(rig.engine.highest_known_ordinal(), 1u);
}

TEST(Delivery, StaleEpochWindowQuarantinedByFence) {
  Rig rig;
  rig.engine.raise_fence(10);
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);

  // A window fenced below the installed epoch is refused wholesale: no
  // binding happens and nothing becomes deliverable through it.
  Oal stale;
  stale.set_epoch(4);
  stale.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak),
                      {});
  const auto out = rig.engine.adopt_oal(stale, 4);
  EXPECT_TRUE(out.quarantined);
  EXPECT_EQ(out.rebinds, 0);
  EXPECT_EQ(out.window_epoch, 4u);
  rig.engine.try_deliver(1001, kGroup);
  EXPECT_TRUE(rig.delivered.empty());

  // The same content at the fence epoch is adopted normally.
  Oal fresh;
  fresh.set_epoch(10);
  fresh.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak),
                      {});
  EXPECT_FALSE(rig.engine.adopt_oal(fresh, 10).quarantined);
  rig.engine.try_deliver(1002, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
}

TEST(Delivery, ClockSeededBaseCollidingWithOldEpochNotMerged) {
  // The straggler delivered ordinal 500 under epoch 3. A re-formed team
  // (every survivor's knowledge lost) clock-seeds a fresh base that lands
  // on the same ordinals under epoch 7 and binds a different proposal
  // there. Adopting that window must surface the fork as divergent — and
  // must NOT leave the stale binding in place — rather than merging the
  // two histories.
  Rig rig;
  Oal old_epoch;
  old_epoch.seed_base(500, 3);
  old_epoch.append_update(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);
  rig.engine.adopt_oal(old_epoch, 3);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  ASSERT_EQ(rig.delivered[0].second, 500u);

  Oal reseeded;
  reseeded.seed_base(500, 7);
  reseeded.append_update(
      Rig::proposal(2, 9, Order::total, Atomicity::weak), {});
  const auto out = rig.engine.adopt_oal(reseeded, 7);
  EXPECT_FALSE(out.quarantined);  // newer epoch: the window itself wins
  EXPECT_EQ(out.divergent, 1);    // ...but the delivered binding forked
  EXPECT_EQ(out.window_epoch, 7u);
}

TEST(Delivery, UndeliveredStaleBindingUnboundWithoutDivergence) {
  // Same collision, but the old-epoch binding was never delivered: the
  // stale binding is silently dropped (no fork in the delivered history)
  // and the proposal re-binds through the new window only.
  Rig rig;
  Oal old_epoch;
  old_epoch.seed_base(500, 3);
  old_epoch.append_update(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), {});
  rig.engine.adopt_oal(old_epoch, 3);  // not delivered: payload not held

  Oal reseeded;
  reseeded.seed_base(500, 7);
  reseeded.append_update(
      Rig::proposal(2, 9, Order::total, Atomicity::weak), {});
  const auto out = rig.engine.adopt_oal(reseeded, 7);
  EXPECT_FALSE(out.quarantined);
  EXPECT_EQ(out.divergent, 0);

  // Only the new epoch's binding delivers.
  rig.engine.note_proposal(
      Rig::proposal(2, 9, Order::total, Atomicity::weak), 1000);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].first, (ProposalId{2, 9}));
  EXPECT_EQ(rig.delivered[0].second, 500u);
}

TEST(Delivery, DisplacedDeliveredBindingTracedApartFromCrossEpochRebind) {
  // oal_quarantined arg 1 means one proposal moved to another ordinal
  // under a newer epoch; arg 2 means an adopted window bound a delivered
  // ordinal to a different proposal. The oracle labels lineage conflicts
  // by this arg, so a same-epoch fork must not be traced as a rebind.
  constexpr GroupId kEpoch = 240;
  obs::Recorder recorder(0, [] { return std::int64_t{0}; }, nullptr);
  Rig rig;
  rig.engine.set_recorder(&recorder);
  Oal first;
  first.seed_base(500, kEpoch);
  first.append_update(Rig::proposal(1, 5, Order::total, Atomicity::weak),
                      {});
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::total, Atomicity::weak), 1000);
  rig.engine.adopt_oal(first, kEpoch);
  rig.engine.try_deliver(1001, kGroup);
  ASSERT_EQ(rig.delivered.size(), 1u);

  // Same epoch, same ordinal, another proposal: an occupancy conflict.
  Oal fork;
  fork.seed_base(500, kEpoch);
  fork.append_update(Rig::proposal(2, 9, Order::total, Atomicity::weak),
                     {});
  EXPECT_EQ(rig.engine.adopt_oal(fork, kEpoch).divergent, 1);

  // Same proposal, another ordinal, a newer epoch: a cross-epoch rebind.
  Oal later;
  later.seed_base(700, kEpoch + 1);
  later.append_update(Rig::proposal(2, 9, Order::total, Atomicity::weak),
                      {});
  EXPECT_EQ(rig.engine.adopt_oal(later, kEpoch + 1).divergent, 1);

  std::vector<obs::Event> traced;
  for (const obs::Event& e : recorder.ring().snapshot())
    if (e.kind == obs::EvKind::oal_quarantined) traced.push_back(e);
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced[0].arg, 2);
  EXPECT_EQ(traced[0].a, 500u);
  EXPECT_EQ(traced[0].b, kEpoch << 32 | kEpoch);
  EXPECT_EQ(traced[1].arg, 1);
  EXPECT_EQ(traced[1].a, 700u);
  EXPECT_EQ(traced[1].b, kEpoch << 32 | (kEpoch + 1));
}

TEST(Delivery, ResetForgetsEverything) {
  Rig rig;
  rig.engine.note_proposal(
      Rig::proposal(1, 5, Order::unordered, Atomicity::weak), 1000);
  rig.engine.try_deliver(1000, kGroup);
  rig.engine.reset();
  EXPECT_EQ(rig.engine.delivered_count(), 0u);
  EXPECT_EQ(rig.engine.buffered_proposals(), 0u);
  EXPECT_EQ(rig.engine.stream_cursor(), 0u);
}

}  // namespace
}  // namespace tw::bcast
