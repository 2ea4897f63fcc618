// White-box tests of the TTSF algorithm (Fig. 8.2): hand-crafted packets
// are fed straight into the proxy's tap so every remapping case is pinned
// down — in-order transforms, drops, retransmission replay (exact, widened,
// probe-sized), ack remapping across zero-length records, FIN accounting.
//
// A scripted transformer filter (registered into the pool by the test)
// decides per-segment what the TTSF should do.
#include "src/filters/ttsf_filter.h"

#include <gtest/gtest.h>

#include "src/filters/standard_set.h"
#include "src/proxy/service_proxy.h"
#include "tests/proxy/proxy_fixture.h"

namespace comma::filters {
namespace {

using proxy::StreamKey;

// Transform plan keyed by original sequence number.
struct Plan {
  enum class Action { kIdentity, kDrop, kReplace };
  std::map<uint32_t, std::pair<Action, util::Bytes>> by_seq;
};

class ScriptedTransformer : public proxy::Filter {
 public:
  explicit ScriptedTransformer(Plan* plan)
      : Filter("scripted", proxy::FilterPriority::kLow), plan_(plan) {}

  proxy::FilterVerdict Out(proxy::FilterContext& ctx, const StreamKey& key,
                           net::Packet& packet) override {
    if (!packet.has_tcp() || packet.payload().empty()) {
      return proxy::FilterVerdict::kPass;
    }
    auto it = plan_->by_seq.find(packet.tcp().seq);
    if (it == plan_->by_seq.end()) {
      return proxy::FilterVerdict::kPass;
    }
    auto* ttsf = dynamic_cast<TtsfFilter*>(ctx.FindFilterOnKey(key, "ttsf"));
    if (ttsf == nullptr) {
      return proxy::FilterVerdict::kPass;
    }
    switch (it->second.first) {
      case Plan::Action::kIdentity:
        break;
      case Plan::Action::kDrop:
        ttsf->SubmitDrop(packet);
        break;
      case Plan::Action::kReplace:
        ttsf->SubmitTransform(packet, it->second.second);
        break;
    }
    return proxy::FilterVerdict::kPass;
  }

 private:
  Plan* plan_;
};

class TtsfUnitTest : public ::testing::Test {
 public:
  static constexpr uint32_t kIss = 5000;        // Client initial seq.
  static constexpr uint32_t kServerIss = 900;   // Server initial seq.

 protected:

  TtsfUnitTest() {
    core::ScenarioConfig cfg;
    cfg.wireless.loss_probability = 0.0;
    scenario_ = std::make_unique<core::WirelessScenario>(cfg);
    proxy::FilterRegistry registry = StandardRegistry();
    registry.Register("scripted", "test transformer",
                      [this] { return std::make_unique<ScriptedTransformer>(&plan_); });
    registry.Load("scripted");
    sp_ = std::make_unique<proxy::ServiceProxy>(&scenario_->gateway(), std::move(registry));

    key_ = StreamKey{scenario_->wired_addr(), 7, scenario_->mobile_addr(), 80};
    std::string error;
    EXPECT_TRUE(sp_->AddService("ttsf", key_, {}, &error)) << error;
    EXPECT_TRUE(sp_->AddService("scripted", key_, {}, &error)) << error;
    ttsf_ = dynamic_cast<TtsfFilter*>(sp_->FindFilterOnKey(key_, "ttsf"));
    EXPECT_TRUE(ttsf_ != nullptr);

    // Establish the mapping state with the SYN exchange.
    FeedForward(MakeSegment(kIss, {}, net::kTcpSyn));
    FeedReverse(MakeReverse(kServerIss, kIss + 1, net::kTcpSyn | net::kTcpAck));
  }

  net::PacketPtr MakeSegment(uint32_t seq, util::Bytes payload, uint8_t flags = net::kTcpAck,
                             uint32_t ack = kServerIss + 1) {
    net::TcpHeader h;
    h.src_port = 7;
    h.dst_port = 80;
    h.seq = seq;
    h.ack = ack;
    h.flags = flags;
    h.window = 8192;
    return net::Packet::MakeTcp(scenario_->wired_addr(), scenario_->mobile_addr(), h,
                                std::move(payload));
  }

  net::PacketPtr MakeReverse(uint32_t seq, uint32_t ack, uint8_t flags = net::kTcpAck) {
    net::TcpHeader h;
    h.src_port = 80;
    h.dst_port = 7;
    h.seq = seq;
    h.ack = ack;
    h.flags = flags;
    h.window = 16384;
    return net::Packet::MakeTcp(scenario_->mobile_addr(), scenario_->wired_addr(), h, {});
  }

  // Feeds a packet through the proxy tap; returns {verdict==pass, packet}.
  std::pair<bool, net::PacketPtr> Feed(net::PacketPtr p) {
    net::TapContext ctx{&scenario_->gateway(), 0};
    const net::TapVerdict verdict = sp_->OnPacket(p, ctx);
    return {verdict == net::TapVerdict::kPass, std::move(p)};
  }
  std::pair<bool, net::PacketPtr> FeedForward(net::PacketPtr p) { return Feed(std::move(p)); }
  std::pair<bool, net::PacketPtr> FeedReverse(net::PacketPtr p) { return Feed(std::move(p)); }

  static util::Bytes Fill(size_t n, uint8_t value) { return util::Bytes(n, value); }

  std::unique_ptr<core::WirelessScenario> scenario_;
  std::unique_ptr<proxy::ServiceProxy> sp_;
  Plan plan_;
  StreamKey key_;
  TtsfFilter* ttsf_ = nullptr;
};

constexpr uint32_t kData = TtsfUnitTest::kIss + 1;  // First data byte.

TEST_F(TtsfUnitTest, IdentitySegmentsKeepSeqNumbers) {
  auto [pass, p] = FeedForward(MakeSegment(kData, Fill(100, 1)));
  EXPECT_TRUE(pass);
  EXPECT_EQ(p->tcp().seq, kData);
  EXPECT_EQ(p->payload().size(), 100u);
}

TEST_F(TtsfUnitTest, ReplacementShrinksAndShiftsSubsequentSeqs) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  auto [pass1, p1] = FeedForward(MakeSegment(kData, Fill(100, 1)));
  ASSERT_TRUE(pass1);
  EXPECT_EQ(p1->tcp().seq, kData);
  EXPECT_EQ(p1->payload(), Fill(40, 9));
  // The next segment lands 60 bytes earlier in output space.
  auto [pass2, p2] = FeedForward(MakeSegment(kData + 100, Fill(50, 2)));
  ASSERT_TRUE(pass2);
  EXPECT_EQ(p2->tcp().seq, kData + 40);
  EXPECT_EQ(p2->payload(), Fill(50, 2));
}

TEST_F(TtsfUnitTest, DropRemovesPacketAndClosesSeqGap) {
  plan_.by_seq[kData] = {Plan::Action::kDrop, {}};
  auto [pass1, p1] = FeedForward(MakeSegment(kData, Fill(100, 1)));
  EXPECT_FALSE(pass1);  // Consumed: nothing to send.
  auto [pass2, p2] = FeedForward(MakeSegment(kData + 100, Fill(50, 2)));
  ASSERT_TRUE(pass2);
  EXPECT_EQ(p2->tcp().seq, kData);  // No gap in output space.
}

TEST_F(TtsfUnitTest, AckRemapsAcrossShrunkRecord) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  // The mobile acks the 40 output bytes; the sender must see 100 acked.
  auto [pass, ack] = FeedReverse(MakeReverse(kServerIss + 1, kData + 40));
  ASSERT_TRUE(pass);
  EXPECT_EQ(ack->tcp().ack, kData + 100);
}

TEST_F(TtsfUnitTest, PartialAckInsideRecordRoundsDown) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  // An ack covering half the transformed record must not over-acknowledge.
  auto [pass, ack] = FeedReverse(MakeReverse(kServerIss + 1, kData + 20));
  ASSERT_TRUE(pass);
  EXPECT_EQ(ack->tcp().ack, kData);
}

TEST_F(TtsfUnitTest, AckAtDropBoundaryCoversDroppedBytes) {
  plan_.by_seq[kData + 100] = {Plan::Action::kDrop, {}};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  FeedForward(MakeSegment(kData + 100, Fill(50, 2)));  // Dropped.
  FeedForward(MakeSegment(kData + 150, Fill(30, 3)));
  // Mobile acks through the third segment's output image: 100 + 0 + 30.
  auto [pass, ack] = FeedReverse(MakeReverse(kServerIss + 1, kData + 130));
  ASSERT_TRUE(pass);
  EXPECT_EQ(ack->tcp().ack, kData + 180);  // Includes the 50 dropped bytes.
}

TEST_F(TtsfUnitTest, ExactRetransmissionReplaysCachedTransform) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  plan_.by_seq.clear();  // The transformer stays silent on the retransmission.
  auto [pass, rtx] = FeedForward(MakeSegment(kData, Fill(100, 1)));
  ASSERT_TRUE(pass);
  EXPECT_EQ(rtx->tcp().seq, kData);
  EXPECT_EQ(rtx->payload(), Fill(40, 9));  // Same bytes as the first pass (§8.1.4).
  EXPECT_EQ(ttsf_->stats().retransmissions_replayed, 1u);
}

TEST_F(TtsfUnitTest, ProbeSizedRetransmissionWidensToFullRecord) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  plan_.by_seq.clear();
  // A 1-byte window probe inside the record: replay the whole record —
  // over-delivery is safe, slicing a transform is not.
  auto [pass, probe] = FeedForward(MakeSegment(kData, Fill(1, 1)));
  ASSERT_TRUE(pass);
  EXPECT_EQ(probe->tcp().seq, kData);
  EXPECT_EQ(probe->payload(), Fill(40, 9));
}

TEST_F(TtsfUnitTest, WidenedRetransmissionSpansMultipleRecords) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(10, 7)};
  plan_.by_seq[kData + 50] = {Plan::Action::kReplace, Fill(20, 8)};
  FeedForward(MakeSegment(kData, Fill(50, 1)));
  FeedForward(MakeSegment(kData + 50, Fill(50, 2)));
  plan_.by_seq.clear();
  // The sender coalesces both segments into one retransmission.
  auto [pass, rtx] = FeedForward(MakeSegment(kData, Fill(100, 1)));
  ASSERT_TRUE(pass);
  EXPECT_EQ(rtx->tcp().seq, kData);
  util::Bytes expected = Fill(10, 7);
  util::Bytes tail = Fill(20, 8);
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(rtx->payload(), expected);
}

TEST_F(TtsfUnitTest, TailDropWithBoundaryAlreadyAckedInjectsImmediately) {
  // The receiver has acked everything when the tail segment gets dropped:
  // nothing later will carry the acknowledgement, so the TTSF manufactures
  // it at drop time (§8.1.5's non-stalling guarantee).
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  FeedReverse(MakeReverse(kServerIss + 1, kData + 100));  // All caught up.
  plan_.by_seq[kData + 100] = {Plan::Action::kDrop, {}};
  const uint64_t injected_before = ttsf_->stats().acks_injected;
  auto [pass, p] = FeedForward(MakeSegment(kData + 100, Fill(50, 2)));
  EXPECT_FALSE(pass);  // Nothing to deliver...
  EXPECT_GT(ttsf_->stats().acks_injected, injected_before);  // ...but acked.
}

TEST_F(TtsfUnitTest, RetransmissionOfAckedDropResolvesViaReAck) {
  // Variant: the drop happened before the receiver's ack caught up, the
  // receiver then acked past the drop boundary (pruning the records), and
  // the sender retransmits anyway. The retransmission maps harmlessly below
  // the receiver's window and the resulting duplicate-ack, remapped, covers
  // the dropped bytes — no stall either way.
  plan_.by_seq[kData + 100] = {Plan::Action::kDrop, {}};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  FeedForward(MakeSegment(kData + 100, Fill(50, 2)));  // Dropped (tail).
  FeedReverse(MakeReverse(kServerIss + 1, kData + 100));
  plan_.by_seq.clear();
  auto [pass, rtx] = FeedForward(MakeSegment(kData + 100, Fill(50, 2)));
  ASSERT_TRUE(pass);
  // Its image ends at or below the receiver's ack point: guaranteed stale.
  EXPECT_TRUE(tcp::SeqLeq(rtx->tcp().seq + static_cast<uint32_t>(rtx->payload().size()),
                          kData + 100));
  // The receiver's re-ack of its unchanged position maps past the drop.
  auto [pass2, ack] = FeedReverse(MakeReverse(kServerIss + 1, kData + 100));
  ASSERT_TRUE(pass2);
  EXPECT_EQ(ack->tcp().ack, kData + 150);
}

TEST_F(TtsfUnitTest, FinConsumesOneSequenceUnitAfterTransforms) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  auto [pass, fin] = FeedForward(MakeSegment(kData + 100, {}, net::kTcpFin | net::kTcpAck));
  ASSERT_TRUE(pass);
  EXPECT_EQ(fin->tcp().seq, kData + 40);  // FIN sits right after the image.
  // The ack of the FIN maps back: mobile acks out-FIN+1 = kData+41.
  auto [pass2, ack] = FeedReverse(MakeReverse(kServerIss + 1, kData + 41));
  ASSERT_TRUE(pass2);
  EXPECT_EQ(ack->tcp().ack, kData + 101);
}

TEST_F(TtsfUnitTest, PureAcksInDataDirectionShiftByFrontierOffset) {
  plan_.by_seq[kData] = {Plan::Action::kDrop, {}};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  // A pure ack from the wired side (no payload) travels in the data
  // direction; its seq is shifted into output space.
  auto [pass, p] = FeedForward(MakeSegment(kData + 100, {}));
  ASSERT_TRUE(pass);
  EXPECT_EQ(p->tcp().seq, kData);
}

TEST_F(TtsfUnitTest, ReverseDirectionDataIsIndependent) {
  plan_.by_seq[kData] = {Plan::Action::kDrop, {}};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  // Server-side data keeps its own (identity) sequence space.
  net::TcpHeader h;
  h.src_port = 80;
  h.dst_port = 7;
  h.seq = kServerIss + 1;
  h.ack = kData;  // In output space: nothing delivered yet beyond data start.
  h.flags = net::kTcpAck;
  h.window = 16384;
  auto p = net::Packet::MakeTcp(scenario_->mobile_addr(), scenario_->wired_addr(), h,
                                Fill(64, 5));
  auto [pass, out] = Feed(std::move(p));
  ASSERT_TRUE(pass);
  EXPECT_EQ(out->tcp().seq, kServerIss + 1);
  EXPECT_EQ(out->payload(), Fill(64, 5));
}

TEST_F(TtsfUnitTest, StatsTrackBytesInAndOut) {
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  plan_.by_seq[kData + 100] = {Plan::Action::kDrop, {}};
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  FeedForward(MakeSegment(kData + 100, Fill(50, 2)));
  FeedForward(MakeSegment(kData + 150, Fill(30, 3)));
  EXPECT_EQ(ttsf_->stats().bytes_in, 180u);
  EXPECT_EQ(ttsf_->stats().bytes_out, 70u);
  EXPECT_EQ(ttsf_->stats().segments_transformed, 2u);
  EXPECT_EQ(ttsf_->stats().segments_dropped, 1u);
}

// Every TTSF on a proxy shares ttsf.offset_map_entries and
// ttsf.held_packets: they read the sum over the live instances, and an
// instance's part leaves with it.
TEST_F(TtsfUnitTest, MapGaugesSumOverInstances) {
  const auto gauges = [this] {
    return std::pair{sp_->metrics().Read("ttsf.offset_map_entries").value_or(-1.0),
                     sp_->metrics().Read("ttsf.held_packets").value_or(-1.0)};
  };
  plan_.by_seq[kData] = {Plan::Action::kReplace, Fill(40, 9)};
  plan_.by_seq[kData + 100] = {Plan::Action::kReplace, Fill(40, 9)};
  // The fixture's stream: two transformed segments at the frontier, then
  // one beyond a gap.
  FeedForward(MakeSegment(kData, Fill(100, 1)));
  FeedForward(MakeSegment(kData + 100, Fill(100, 2)));
  FeedForward(MakeSegment(kData + 300, Fill(100, 4)));
  EXPECT_EQ(gauges(), std::pair(2.0, 1.0));

  // A second stream, from client port 8, with its own TTSF: one segment at
  // the frontier, two beyond the gap.
  const StreamKey other{scenario_->wired_addr(), 8, scenario_->mobile_addr(), 80};
  std::string error;
  ASSERT_TRUE(sp_->AddService("ttsf", other, {}, &error)) << error;
  ASSERT_TRUE(sp_->AddService("scripted", other, {}, &error)) << error;
  const auto feed_other = [this](uint32_t seq, util::Bytes payload, uint8_t flags) {
    net::PacketPtr p = MakeSegment(seq, std::move(payload), flags);
    p->tcp().src_port = 8;
    FeedForward(std::move(p));
  };
  feed_other(kIss, {}, net::kTcpSyn);
  feed_other(kData, Fill(100, 1), net::kTcpAck);
  feed_other(kData + 200, Fill(100, 3), net::kTcpAck);
  feed_other(kData + 300, Fill(100, 4), net::kTcpAck);
  EXPECT_EQ(gauges(), std::pair(3.0, 3.0));

  sp_->RemoveStream(other);
  sp_->RemoveStream(other.Reversed());
  EXPECT_EQ(gauges(), std::pair(2.0, 1.0));
  sp_->RemoveStream(key_);
  sp_->RemoveStream(key_.Reversed());
  EXPECT_EQ(gauges(), std::pair(0.0, 0.0));
}

}  // namespace
}  // namespace comma::filters
