// The TCP-Transparency-Support Filter (TTSF) — thesis §8.1, Fig. 8.2.
//
// The TTSF lets other filters drop, shrink, or grow the payload of TCP
// segments without breaking the connection's end-to-end semantics. It keeps,
// per direction, a map between the *original* sequence space (what the
// sender emits) and the *output* sequence space (what the receiver sees):
//
//   - Each processed segment becomes a Record{orig_seq, orig_len, out_seq,
//     out_payload}. Transformer filters (tdrop, tcompress, tdecompress)
//     submit a replacement payload for the in-flight packet; absent a
//     submission the record is the identity.
//   - Data packets are rewritten into output space (seq shifted by the
//     accumulated length delta, payload replaced).
//   - Retransmissions are answered by *replaying the cached transform* so
//     the receiver always sees a consistent byte stream (§8.1.4: the same
//     data must always be modified the same way). A retransmission that
//     covers only part of a record is widened to the full record set — TCP
//     receivers discard duplicate bytes, so over-delivery is safe;
//     under-delivery or inconsistency is not.
//   - ACKs travelling the reverse path are mapped from output space back to
//     original space, conservatively rounding down inside a record so data
//     the receiver has not seen is never acknowledged to the sender.
//   - A segment transformed to zero bytes is dropped from the wire. Its
//     sequence range is acknowledged to the sender either by the mapping of
//     later ACKs, or — when it sits at the tail of the stream — by an ACK
//     the TTSF manufactures itself.
//
// SYN and FIN consume sequence numbers in both spaces; the TTSF tracks them
// so connection setup and teardown stay transparent.
#ifndef COMMA_FILTERS_TTSF_FILTER_H_
#define COMMA_FILTERS_TTSF_FILTER_H_

#include <deque>
#include <map>
#include <memory>

#include "src/obs/metric_registry.h"
#include "src/proxy/filter.h"

namespace comma::filters {

class SeqSpaceAuditor;

struct TtsfStats {
  uint64_t segments_transformed = 0;
  uint64_t segments_dropped = 0;       // Transformed to zero bytes.
  uint64_t retransmissions_replayed = 0;
  uint64_t acks_remapped = 0;
  uint64_t acks_injected = 0;
  uint64_t bytes_in = 0;   // Original payload bytes.
  uint64_t bytes_out = 0;  // Transformed payload bytes.
  uint64_t bypass_entries = 0;      // Stream pairs degraded to passthrough.
  uint64_t bypass_drained = 0;      // Held packets flushed on bypass entry.
  uint64_t bypass_passthrough = 0;  // Segments forwarded while bypassed.
};

class TtsfFilter : public proxy::Filter {
 public:
  TtsfFilter();
  ~TtsfFilter() override;

  // --- Transformer-facing API (called during the out pass, before TTSF) ---
  // Replaces the payload of `packet` (identified by uid) when TTSF processes
  // it. An empty payload drops the segment's bytes from the stream.
  void SubmitTransform(const net::Packet& packet, util::Bytes new_payload);
  void SubmitDrop(const net::Packet& packet) { SubmitTransform(packet, {}); }

  const TtsfStats& stats() const { return stats_; }

  // --- Graceful degradation (bypass-and-drain) ---
  // When the sequence map is no longer trustworthy (a quick health probe or
  // the SeqSpaceAuditor fails, or fault injection demands it), the stream
  // pair degrades to *bypass*: transforming stops, held packets drain, and
  // from then on every segment is forwarded with its original payload and a
  // constant sequence shift — the frozen frontier offset — so the map is
  // effectively identity-plus-constant and never again depends on cached
  // (possibly corrupt) state. Original bytes are by definition uncorrupted,
  // which is the degradation contract: a bypassed TTSF may stall a stream
  // whose transforms changed segment lengths, but it never delivers bytes
  // the sender did not send. A new SYN resets the direction and re-arms
  // transforming.
  void ForceBypass(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                   const std::string& reason);
  // True when `key`'s direction is in bypass mode.
  bool bypassed(const proxy::StreamKey& key) const;
  const std::string& bypass_reason() const { return bypass_reason_; }

  // --- Invariant auditing (active when util::DebugChecksEnabled()) ---
  // The SeqSpaceAuditor attached to this filter; runs over both directions
  // of a stream after every packet the TTSF processes.
  const SeqSpaceAuditor& auditor() const { return *auditor_; }
  // Audits both directions of `key` immediately (test hook; also fired from
  // Out() when debug checks are on).
  void AuditKey(const proxy::StreamKey& key);
  // Deliberately desynchronizes the offset map of `key`'s direction so tests
  // can prove the auditor fires. Returns false if there is nothing to
  // corrupt yet (no records).
  bool CorruptOffsetMapForTest(const proxy::StreamKey& key);

  // --- Filter interface ---
  bool OnInsert(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                const std::vector<std::string>& args, std::string* error) override;
  void In(proxy::FilterContext& ctx, const proxy::StreamKey& key,
          const net::Packet& packet) override;
  proxy::FilterVerdict Out(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                           net::Packet& packet) override;
  std::string Status() const override;

  // --- Failover state contract (docs/robustness.md) ---
  // Exports every direction's offset map: frontiers, records with cached
  // replay payloads, ack bookkeeping. Held packets and pending transforms
  // are NOT exported — the sender's RTO re-delivers them, and the restored
  // map replays their transforms consistently. After ImportState each
  // restored direction is *provisional*: the first data packet either
  // confirms the map (data at or below the restored frontier) or proves the
  // checkpoint stale (data beyond it), in which case the direction enters
  // bypass-and-drain and resyncs from live traffic.
  proxy::FilterStateKind state_kind() const override;
  bool ExportState(util::Bytes* out) const override;
  bool ImportState(proxy::FilterContext& ctx, const util::Bytes& in, std::string* error) override;

 private:
  struct Record {
    uint32_t orig_seq = 0;
    uint32_t orig_len = 0;  // Payload bytes only (FIN/SYN handled separately).
    uint32_t out_seq = 0;
    uint32_t out_len = 0;
    util::Bytes cached;    // Replay payload; empty for gap/FIN records.
    bool identity = false;  // Output bytes == original bytes.
    bool is_fin = false;   // A one-sequence-unit FIN marker record.
  };

  struct HeldPacket {
    net::PacketPtr packet;  // ACK field already remapped.
    bool has_transform = false;
    util::Bytes transform;
  };

  struct DirState {
    bool initialized = false;
    uint32_t orig_frontier = 0;  // Next unseen original sequence number.
    uint32_t out_frontier = 0;   // Its image in output space.
    std::deque<Record> records;  // Contiguous, ordered by orig_seq.
    // Packets that arrived beyond the frontier while transforms are active:
    // held until the gap fills, because their output position depends on the
    // (unknown) transform of the missing data.
    std::map<uint32_t, HeldPacket> held;
    // Highest ack (output space) seen from the receiver of this direction.
    bool ack_seen = false;
    uint32_t max_acked_out = 0;
    // Bookkeeping from the *reverse* travel direction, for injected ACKs.
    uint32_t peer_seq = 0;      // Receiver's current send position.
    uint16_t peer_window = 0;   // Receiver's last advertised window.
    bool transforms_used = false;
    // Degraded passthrough: frontiers are frozen (their difference is the
    // constant shift applied to everything), records are gone, transforms
    // are ignored. Cleared by the next SYN.
    bool bypass = false;
    // Set by ImportState: the map came from a checkpoint and has not yet
    // been confirmed by live traffic. Cleared by the first data packet at or
    // below the restored frontier; data beyond it enters bypass instead.
    bool restored = false;
  };

  proxy::FilterVerdict ProcessData(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                                   net::Packet& packet, DirState& st);
  // Appends the record(s) for an in-order packet at the frontier and
  // rewrites the packet into output space. Returns kDrop when the packet's
  // image is empty.
  proxy::FilterVerdict ApplyInOrder(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                                    DirState& st, net::Packet& packet, bool has_transform,
                                    util::Bytes transform);
  // Releases any held packets that are now in order, re-injecting them.
  void ReleaseHeld(proxy::FilterContext& ctx, const proxy::StreamKey& key, DirState& st);
  uint32_t MapAckToOrig(const DirState& st, uint32_t ack_out) const;
  void AppendRecord(DirState& st, Record rec);
  void PruneAcked(DirState& st);
  void MaybeInjectTailAck(proxy::FilterContext& ctx, const proxy::StreamKey& key, DirState& st,
                          uint32_t acked_orig);
  // O(1) health probe run on every packet before the map is consulted: the
  // newest record must end exactly at both frontiers.
  bool MapHealthy(const DirState& st) const;
  // Degrades both travel directions of `key` to bypass and drains held
  // packets (shifted by the frozen offset, original payloads) in order.
  void EnterBypass(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                   const std::string& reason);
  void BypassDirection(proxy::FilterContext& ctx, DirState& st);

  friend class SeqSpaceAuditor;

  // Registry handles ("ttsf.*", docs/observability.md). Null sinks until
  // OnInsert binds them, so a TTSF constructed outside a proxy still runs.
  // Counters mirror TtsfStats and are advanced by delta in PublishObs;
  // bytes_dropped (the transform byte reduction Kati watches) is bumped at
  // the transform site itself.
  struct TtsfObs {
    obs::Counter* segments_transformed = obs::MetricRegistry::NullCounter();
    obs::Counter* segments_dropped = obs::MetricRegistry::NullCounter();
    obs::Counter* retransmissions_replayed = obs::MetricRegistry::NullCounter();
    obs::Counter* acks_remapped = obs::MetricRegistry::NullCounter();
    obs::Counter* acks_injected = obs::MetricRegistry::NullCounter();
    obs::Counter* bytes_in = obs::MetricRegistry::NullCounter();
    obs::Counter* bytes_out = obs::MetricRegistry::NullCounter();
    obs::Counter* bytes_dropped = obs::MetricRegistry::NullCounter();
    obs::Counter* bypass_entries = obs::MetricRegistry::NullCounter();
    obs::Gauge* offset_map_entries = obs::MetricRegistry::NullGauge();
    obs::Gauge* held_packets = obs::MetricRegistry::NullGauge();
  };
  void BindObs(proxy::FilterContext& ctx);
  // Advances the registry counters by the TtsfStats delta since the last
  // call and refreshes the map-size gauges. Called at the end of Out.
  void PublishObs();

  std::map<proxy::StreamKey, DirState> dirs_;
  std::map<uint64_t, util::Bytes> pending_;  // uid -> submitted payload.
  TtsfStats stats_;
  TtsfStats published_;  // Counter values already pushed to the registry.
  // This instance's part of the map-size gauges, which every TTSF on the
  // proxy shares: they read the sum over the live instances.
  size_t published_records_ = 0;
  size_t published_held_ = 0;
  TtsfObs obs_;
  std::string bypass_reason_;  // First reason; empty while healthy.
  std::unique_ptr<SeqSpaceAuditor> auditor_;
};

}  // namespace comma::filters

#endif  // COMMA_FILTERS_TTSF_FILTER_H_
