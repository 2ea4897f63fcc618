#include "src/net/link.h"

#include <algorithm>
#include <cmath>

#include "src/net/node.h"
#include "src/util/check.h"

namespace comma::net {

LinkConfig WiredLinkConfig() {
  LinkConfig c;
  c.bandwidth_bps = 10'000'000;  // 10 Mbit/s Ethernet-class.
  c.propagation_delay = sim::kMillisecond;
  c.queue_limit_packets = 64;
  return c;
}

LinkConfig WirelessLinkConfig() {
  LinkConfig c;
  c.bandwidth_bps = 1'000'000;  // 1 Mbit/s WaveLAN-class.
  c.propagation_delay = 5 * sim::kMillisecond;
  c.queue_limit_packets = 32;
  c.loss_probability = 0.01;
  return c;
}

LinkConfig BackboneLinkConfig() {
  LinkConfig c;
  c.bandwidth_bps = 100'000'000;  // 100 Mbit/s backhaul.
  c.propagation_delay = 5 * sim::kMillisecond;
  c.queue_limit_packets = 128;
  return c;
}

Link::Link(sim::Simulator* sim, sim::Random rng, const LinkConfig& config, std::string name)
    : sim_(sim), name_(std::move(name)), rng_(rng) {
  for (int side = 0; side < 2; ++side) {
    sides_[side].config = config;
  }
}

void Link::Attach(int side, Node* node, uint32_t iface) {
  sides_[side].node = node;
  sides_[side].iface = iface;
}

void Link::SetRegions(sim::RegionId side0, sim::RegionId side1) {
  sides_[0].region = side0;
  sides_[1].region = side1;
  if (side0 != side1) {
    const sim::Duration lookahead =
        std::min(sides_[0].config.propagation_delay, sides_[1].config.propagation_delay);
    sim_->RegisterCrossRegionEdge(side0, side1, lookahead);
    // Stream-derived so each side's loss/corruption sequence depends only
    // on the link's seed and the side index — never on the other side's
    // draws or thread interleaving.
    for (int side = 0; side < 2; ++side) {
      sides_[side].rng = rng_.ForkStream(static_cast<uint64_t>(side));
    }
  }
}

sim::Random& Link::RngFor(int side) { return cross_region() ? sides_[side].rng : rng_; }

sim::Duration Link::TransmitTimeFor(int side, size_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  const double seconds = bits / static_cast<double>(sides_[side].config.bandwidth_bps);
  return sim::SecondsToDuration(seconds);
}

sim::Duration Link::TransmitTime(size_t bytes) const { return TransmitTimeFor(0, bytes); }

bool Link::LossModelDrops(int side, size_t bytes) {
  Side& s = sides_[side];
  sim::Random& rng = RngFor(side);
  if (s.config.loss_probability > 0.0 && rng.Bernoulli(s.config.loss_probability)) {
    return true;
  }
  if (s.config.bit_error_rate > 0.0) {
    const double bits = static_cast<double>(bytes) * 8.0;
    const double p_ok = std::pow(1.0 - s.config.bit_error_rate, bits);
    if (rng.Bernoulli(1.0 - p_ok)) {
      return true;
    }
  }
  return false;
}

void Link::ApplyPerSide(const std::function<void(int)>& mutate) {
  if (!cross_region() || !sim_->InEvent()) {
    // Same-region link, or the main thread between runs: both sides are
    // owned by the caller, so the mutation is instantaneous — exactly the
    // original single-owner link semantics.
    mutate(0);
    mutate(1);
    return;
  }
  const sim::RegionId caller = sim_->CurrentRegion();
  int local;
  if (caller == sides_[0].region) {
    local = 0;
  } else {
    COMMA_CHECK(caller == sides_[1].region)
        << "cross-region link " << name_ << " mutated from foreign region " << caller;
    local = 1;
  }
  mutate(local);
  const int remote = 1 - local;
  const sim::Duration lookahead = sim_->EdgeLookahead(caller, sides_[remote].region);
  sim_->ScheduleInRegion(sides_[remote].region, lookahead,
                         [mutate, remote] { mutate(remote); });
}

void Link::SetBandwidth(uint64_t bps) {
  ApplyPerSide([this, bps](int side) { sides_[side].config.bandwidth_bps = bps ? bps : 1; });
}

void Link::SetLossProbability(double p) {
  ApplyPerSide([this, p](int side) { sides_[side].config.loss_probability = p; });
}

void Link::SetCorruptProbability(double p) {
  ApplyPerSide([this, p](int side) { sides_[side].config.corrupt_probability = p; });
}

void Link::SetUp(bool up) {
  ApplyPerSide([this, up](int side) {
    Side& s = sides_[side];
    if (s.up == up) {
      return;
    }
    s.up = up;
    if (!up) {
      // In-flight packets are lost and queued packets are discarded.
      ++s.epoch;
      s.stats.drops_down += s.queue.size();
      s.queue.clear();
      s.transmitting = false;
    } else if (!s.queue.empty()) {
      StartTransmit(side);
    }
  });
}

void Link::Send(int side, PacketPtr packet) {
  Side& s = sides_[side];
  if (!s.up) {
    ++s.stats.drops_down;
    return;
  }
  if (s.queue.size() >= s.config.queue_limit_packets) {
    ++s.stats.drops_queue;
    return;
  }
  s.queue.push_back(std::move(packet));
  if (!s.transmitting) {
    StartTransmit(side);
  }
}

void Link::Deliver(int side, PacketPtr packet, uint64_t expected_epoch, bool check_epoch) {
  Side& dst = sides_[side];
  if (!dst.up || (check_epoch && dst.epoch != expected_epoch)) {
    ++dst.stats.drops_down;
    return;
  }
  ++dst.stats.rx_packets;
  dst.stats.rx_bytes += packet->SizeBytes();
  if (dst.node != nullptr) {
    dst.node->ReceiveFromLink(dst.iface, std::move(packet));
  }
}

void Link::StartTransmit(int side) {
  Side& s = sides_[side];
  if (s.queue.empty() || s.transmitting || !s.up) {
    return;
  }
  s.transmitting = true;
  const size_t bytes = s.queue.front()->SizeBytes();
  const uint64_t epoch_at_start = s.epoch;
  sim_->Schedule(TransmitTimeFor(side, bytes), [this, side, epoch_at_start] {
    Side& sd = sides_[side];
    if (epoch_at_start != sd.epoch || sd.queue.empty()) {
      return;  // Link went down while serializing.
    }
    sd.transmitting = false;
    PacketPtr p = std::move(sd.queue.front());
    sd.queue.pop_front();
    const size_t sz = p->SizeBytes();
    ++sd.stats.tx_packets;
    sd.stats.tx_bytes += sz;

    const int other = 1 - side;
    if (LossModelDrops(side, sz)) {
      ++sd.stats.drops_error;
    } else {
      // Corruption model: damage payload bytes but deliver the packet. The
      // stale checksum is the receiver's evidence; its stack drops it there.
      sim::Random& rng = RngFor(side);
      if (sd.config.corrupt_probability > 0.0 && !p->payload().empty() &&
          rng.Bernoulli(sd.config.corrupt_probability)) {
        const size_t at = rng.NextBelow(p->payload().size());
        p->payload()[at] ^= 0xff;
        ++sd.stats.corrupted;
      }
      // A shared_ptr holder keeps the packet owned even if the event is
      // destroyed unfired (e.g. the simulation ends mid-propagation).
      auto holder = std::make_shared<PacketPtr>(std::move(p));
      const Side& dst = sides_[other];
      if (dst.region == sd.region) {
        // Same region: a flap during propagation (epoch bump) kills the
        // delivery, as the original link always did.
        const uint64_t dst_epoch = dst.epoch;
        sim_->Schedule(sd.config.propagation_delay, [this, other, holder, dst_epoch] {
          Deliver(other, std::move(*holder), dst_epoch, true);
        });
      } else {
        // Cross region: the arrival rides the edge channel and the only
        // honest question is whether the destination side is up when the
        // packet lands (docs/parallel-sim.md, "Cross-region link
        // semantics").
        sim_->ScheduleInRegion(dst.region, sd.config.propagation_delay,
                               [this, other, holder] {
                                 Deliver(other, std::move(*holder), 0, false);
                               });
      }
    }
    StartTransmit(side);
  });
}

}  // namespace comma::net
