// Point-to-point links with bandwidth, propagation delay, bounded drop-tail
// queues, loss models, and runtime-variable QoS.
//
// The wireless variability the thesis is about (§2.3) is modelled here: a
// link's bandwidth, loss and corruption probabilities, and up/down state can
// all change while the simulation runs, and the EEM reads the per-side
// counters this class maintains.
//
// Concurrency (DESIGN.md §7, docs/parallel-sim.md): link state is held
// per side, and each side belongs to the region of its attached node
// (SetRegions; both default to region 0). Same-region links behave exactly
// like the original single-owner link. A *cross-region* link is the PDES
// partition boundary: its propagation delay registers as the edge's
// conservative lookahead, deliveries are scheduled into the destination
// side's region through the simulator's cross-region channels, and QoS/up
// mutations apply to the caller's side immediately and to the remote side
// one lookahead later (ApplyPerSide). Consequently a cross link delivers a
// packet iff the destination side is up at *arrival* time, whereas a
// same-region link keeps the original in-flight epoch-capture semantics.
#ifndef COMMA_NET_LINK_H_
#define COMMA_NET_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace comma::net {

class Node;

struct LinkConfig {
  uint64_t bandwidth_bps = 10'000'000;                    // 10 Mbit/s wired default.
  sim::Duration propagation_delay = sim::kMillisecond;    // 1 ms.
  size_t queue_limit_packets = 64;                        // Drop-tail bound.
  double loss_probability = 0.0;                          // Per-packet Bernoulli loss.
  double bit_error_rate = 0.0;                            // Independent per-bit errors.
  // Per-packet probability that payload bytes are flipped in flight instead
  // of the packet being dropped. Checksums are left stale, so the receiving
  // stack's verification is what catches (and drops) the damage.
  double corrupt_probability = 0.0;
};

// Canonical configurations for the two environments in the thesis's network
// model (Fig. 1.1): a fast stable wired segment and a slow lossy wireless one.
LinkConfig WiredLinkConfig();
LinkConfig WirelessLinkConfig();
// A fat, longer-haul segment for gateway backhaul in multi-gateway
// topologies; its 5 ms propagation delay is the usual PDES lookahead.
LinkConfig BackboneLinkConfig();

struct LinkSideStats {
  uint64_t tx_packets = 0;    // Packets fully serialized onto the wire.
  uint64_t tx_bytes = 0;
  uint64_t rx_packets = 0;    // Packets delivered to this side's node.
  uint64_t rx_bytes = 0;
  uint64_t drops_queue = 0;   // Drop-tail overflow.
  uint64_t drops_error = 0;   // Loss model.
  uint64_t drops_down = 0;    // Link was down.
  uint64_t corrupted = 0;     // Payload bytes flipped in flight (delivered).
};

class Link {
 public:
  Link(sim::Simulator* sim, sim::Random rng, const LinkConfig& config, std::string name);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Attaches one end. `side` is 0 or 1; `iface` is the node's interface index.
  void Attach(int side, Node* node, uint32_t iface);

  // Declares the regions the two sides live in (before the first Run).
  // Differing regions make this a cross-region link: the smaller of the two
  // sides' propagation delays is registered as the edge lookahead.
  void SetRegions(sim::RegionId side0, sim::RegionId side1);
  sim::RegionId region(int side) const { return sides_[side].region; }
  bool cross_region() const { return sides_[0].region != sides_[1].region; }

  // Enqueues a packet for transmission from `side` toward the other side.
  void Send(int side, PacketPtr packet);

  // --- Runtime QoS control (the "wireless variability" knobs) ---
  // Mutations apply to both sides: instantly on a same-region link; on a
  // cross-region link the caller's side changes now and the remote side one
  // edge-lookahead later (the partition is honest about propagation).
  void SetBandwidth(uint64_t bps);
  void SetLossProbability(double p);
  void SetCorruptProbability(double p);
  // Taking a link down drops everything in flight (a mobile moving out of
  // range loses whatever was in the air).
  void SetUp(bool up);

  bool IsUp() const { return sides_[0].up && sides_[1].up; }
  const LinkConfig& config() const { return sides_[0].config; }
  const LinkSideStats& stats(int side) const { return sides_[side].stats; }
  // The node and interface attached at `side` (nullptr before Attach).
  Node* attached_node(int side) const { return sides_[side].node; }
  uint32_t attached_iface(int side) const { return sides_[side].iface; }
  const std::string& name() const { return name_; }
  size_t QueueDepth(int side) const { return sides_[side].queue.size(); }

  // Serialization time for `bytes` at side 0's current bandwidth.
  sim::Duration TransmitTime(size_t bytes) const;

 private:
  struct Side {
    Node* node = nullptr;
    uint32_t iface = 0;
    sim::RegionId region = sim::kMainRegion;
    // Every QoS knob and the up/down state live per side so that the two
    // regions of a cross link never touch shared mutable state.
    LinkConfig config;
    bool up = true;
    // Generation counter: bumped when this side goes down so in-flight
    // same-region delivery events from before the outage cancel themselves.
    uint64_t epoch = 0;
    sim::Random rng;
    std::deque<PacketPtr> queue;
    bool transmitting = false;
    LinkSideStats stats;
  };

  void StartTransmit(int side);
  void Deliver(int side, PacketPtr packet, uint64_t expected_epoch, bool check_epoch);
  bool LossModelDrops(int side, size_t bytes);
  // Same-region links draw loss/corruption from the shared rng_ (the
  // original single-owner sequence, bit-identical for a given seed);
  // cross-region links use per-side streams forked at SetRegions so the
  // two regions never share mutable RNG state.
  sim::Random& RngFor(int side);
  // Runs `mutate(side)` on both sides: both immediately when same-region or
  // not inside an event; caller's side now + remote side at +lookahead when
  // invoked from a cross link's endpoint region.
  void ApplyPerSide(const std::function<void(int)>& mutate);
  sim::Duration TransmitTimeFor(int side, size_t bytes) const;

  sim::Simulator* sim_;
  std::string name_;
  sim::Random rng_;  // Shared draw sequence for same-region links.
  Side sides_[2];
};

}  // namespace comma::net

#endif  // COMMA_NET_LINK_H_
