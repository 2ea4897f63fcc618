#include "src/filters/ttsf_filter.h"

#include "src/proxy/service_proxy.h"

#include <algorithm>

#include "src/filters/ttsf_audit.h"
#include "src/proxy/filter_state.h"
#include "src/tcp/seq.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace comma::filters {

using tcp::SeqDiff;
using tcp::SeqGeq;
using tcp::SeqGt;
using tcp::SeqLeq;
using tcp::SeqLt;
using tcp::SeqMax;

namespace {

// Moves one instance's part of a gauge shared by several from *published
// to `share`.
void MoveGaugeShare(obs::Gauge* gauge, size_t share, size_t* published) {
  gauge->Set(gauge->Read() + static_cast<double>(share) - static_cast<double>(*published));
  *published = share;
}

}  // namespace

TtsfFilter::TtsfFilter()
    : Filter("ttsf", proxy::FilterPriority::kNormal),
      auditor_(std::make_unique<SeqSpaceAuditor>()) {}

TtsfFilter::~TtsfFilter() {
  MoveGaugeShare(obs_.offset_map_entries, 0, &published_records_);
  MoveGaugeShare(obs_.held_packets, 0, &published_held_);
}

void TtsfFilter::AuditKey(const proxy::StreamKey& key) {
  if (auto it = dirs_.find(key); it != dirs_.end()) {
    auditor_->AuditDirection(key, it->second);
  }
  const proxy::StreamKey rev = key.Reversed();
  if (auto it = dirs_.find(rev); it != dirs_.end()) {
    auditor_->AuditDirection(rev, it->second);
  }
}

bool TtsfFilter::CorruptOffsetMapForTest(const proxy::StreamKey& key) {
  auto it = dirs_.find(key);
  if (it == dirs_.end() || it->second.records.empty()) {
    return false;
  }
  // Shift the newest record's output position: the out-space map is no
  // longer contiguous and no longer meets the frontier.
  it->second.records.back().out_seq += 1000;
  return true;
}

void TtsfFilter::SubmitTransform(const net::Packet& packet, util::Bytes new_payload) {
  pending_[packet.uid()] = std::move(new_payload);
}

bool TtsfFilter::OnInsert(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                          const std::vector<std::string>& /*args*/, std::string* error) {
  if (key.IsWildcard()) {
    if (error != nullptr) {
      *error = "ttsf requires a concrete stream key";
    }
    return false;
  }
  // Sequence mapping needs both travel directions.
  ctx.proxy().Attach(shared_from_this(), key.Reversed());
  BindObs(ctx);
  return true;
}

void TtsfFilter::BindObs(proxy::FilterContext& ctx) {
  obs::MetricRegistry* reg = ctx.metrics();
  obs_.segments_transformed = reg->GetCounter("ttsf.segments_transformed");
  obs_.segments_dropped = reg->GetCounter("ttsf.segments_dropped");
  obs_.retransmissions_replayed = reg->GetCounter("ttsf.retransmissions_replayed");
  obs_.acks_remapped = reg->GetCounter("ttsf.acks_remapped");
  obs_.acks_injected = reg->GetCounter("ttsf.acks_injected");
  obs_.bytes_in = reg->GetCounter("ttsf.bytes_in");
  obs_.bytes_out = reg->GetCounter("ttsf.bytes_out");
  obs_.bytes_dropped = reg->GetCounter("ttsf.bytes_dropped");
  obs_.bypass_entries = reg->GetCounter("ttsf.bypass_entries");
  obs_.offset_map_entries = reg->GetGauge("ttsf.offset_map_entries");
  obs_.held_packets = reg->GetGauge("ttsf.held_packets");
}

void TtsfFilter::PublishObs() {
  obs_.segments_transformed->Inc(stats_.segments_transformed - published_.segments_transformed);
  obs_.segments_dropped->Inc(stats_.segments_dropped - published_.segments_dropped);
  obs_.retransmissions_replayed->Inc(stats_.retransmissions_replayed -
                                     published_.retransmissions_replayed);
  obs_.acks_remapped->Inc(stats_.acks_remapped - published_.acks_remapped);
  obs_.acks_injected->Inc(stats_.acks_injected - published_.acks_injected);
  obs_.bytes_in->Inc(stats_.bytes_in - published_.bytes_in);
  obs_.bytes_out->Inc(stats_.bytes_out - published_.bytes_out);
  obs_.bypass_entries->Inc(stats_.bypass_entries - published_.bypass_entries);
  published_ = stats_;
  size_t records = 0;
  size_t held = 0;
  for (const auto& [key, st] : dirs_) {
    records += st.records.size();
    held += st.held.size();
  }
  MoveGaugeShare(obs_.offset_map_entries, records, &published_records_);
  MoveGaugeShare(obs_.held_packets, held, &published_held_);
}

void TtsfFilter::In(proxy::FilterContext&, const proxy::StreamKey&, const net::Packet&) {}

proxy::FilterVerdict TtsfFilter::Out(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                                     net::Packet& packet) {
  if (!packet.has_tcp()) {
    return proxy::FilterVerdict::kPass;
  }
  DirState& st = dirs_[key];
  DirState& rev = dirs_[key.Reversed()];

  // 0. Health probe before the map is consulted: a desynchronized record
  //    chain would rewrite this packet with garbage offsets, so degrade to
  //    passthrough first (fail-open; see EnterBypass).
  if (!MapHealthy(st) || !MapHealthy(rev)) {
    EnterBypass(ctx, key, "sequence map desynchronized");
  }

  // 1. ACK remapping: this packet acknowledges data of the reverse travel
  //    direction; its ack number is in that direction's output space.
  if (packet.tcp().flags & net::kTcpAck) {
    if (rev.initialized) {
      const uint32_t ack_out = packet.tcp().ack;
      if (!rev.ack_seen) {
        rev.ack_seen = true;
        rev.max_acked_out = ack_out;
      } else {
        rev.max_acked_out = SeqMax(rev.max_acked_out, ack_out);
      }
      const uint32_t ack_orig = MapAckToOrig(rev, ack_out);
      if (ack_orig != ack_out) {
        ++stats_.acks_remapped;
      }
      packet.tcp().ack = ack_orig;
      PruneAcked(rev);
    }
  }

  // 2. Data processing in this direction (seq rewrite, payload transform).
  const proxy::FilterVerdict verdict = ProcessData(ctx, key, packet, st);

  // 3. Peer bookkeeping for injected ACKs in the reverse direction: the
  //    sender of this packet is the receiver of `rev`'s data.
  if (verdict == proxy::FilterVerdict::kPass) {
    rev.peer_seq = packet.tcp().seq + net::TcpSegmentLength(packet);
    rev.peer_window = packet.tcp().window;
  }

  if (util::DebugChecksEnabled()) {
    if (util::CheckThrowEnabled()) {
      // In throw mode a fired invariant is recoverable: degrade the stream
      // pair to bypass instead of letting the failure escape (which would
      // quarantine the whole filter — unsafe once sequence numbers have been
      // rewritten, since plain removal would seam the receiver's stream).
      try {
        auditor_->AuditDirection(key, st);
        auditor_->AuditDirection(key.Reversed(), rev);
      } catch (const util::CheckFailure& e) {
        EnterBypass(ctx, key, e.what());
      }
    } else {
      auditor_->AuditDirection(key, st);
      auditor_->AuditDirection(key.Reversed(), rev);
    }
  }
  PublishObs();
  return verdict;
}

bool TtsfFilter::MapHealthy(const DirState& st) const {
  if (!st.initialized || st.bypass || st.records.empty()) {
    return true;
  }
  const Record& back = st.records.back();
  return back.orig_seq + back.orig_len == st.orig_frontier &&
         back.out_seq + back.out_len == st.out_frontier;
}

void TtsfFilter::ForceBypass(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                             const std::string& reason) {
  EnterBypass(ctx, key, reason);
}

bool TtsfFilter::bypassed(const proxy::StreamKey& key) const {
  auto it = dirs_.find(key);
  return it != dirs_.end() && it->second.bypass;
}

void TtsfFilter::EnterBypass(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                             const std::string& reason) {
  DirState& st = dirs_[key];
  DirState& rev = dirs_[key.Reversed()];
  if (st.bypass && rev.bypass) {
    return;
  }
  if (bypass_reason_.empty()) {
    bypass_reason_ = reason;
  }
  ++stats_.bypass_entries;
  ctx.tracer().Logf(sim::TraceLevel::kWarn, "ttsf", "bypass %s: %s", key.ToString().c_str(),
                    reason.c_str());
  // Both travel directions go together: each one's ack numbers are
  // interpreted through the other's map.
  BypassDirection(ctx, st);
  BypassDirection(ctx, rev);
}

void TtsfFilter::BypassDirection(proxy::FilterContext& ctx, DirState& st) {
  if (st.bypass) {
    return;
  }
  st.bypass = true;
  st.restored = false;
  // Frontiers freeze here; their difference is the constant shift applied to
  // everything from now on. With the records gone, MapAckToOrig reduces to
  // exactly that shift.
  st.records.clear();
  // Drain: held packets (beyond the frontier) leave now, shifted, with their
  // original payloads. The gap before them is the sender's to retransmit;
  // the retransmission passes through bypassed like everything else.
  const uint32_t shift = static_cast<uint32_t>(SeqDiff(st.out_frontier, st.orig_frontier));
  for (auto& [held_seq, held] : st.held) {
    held.packet->tcp().seq = held_seq + shift;
    ++stats_.bypass_drained;
    auto holder = std::make_shared<net::PacketPtr>(std::move(held.packet));
    proxy::ServiceProxy* proxy = &ctx.proxy();
    ctx.simulator().Schedule(0, [proxy, holder] { proxy->InjectPacket(std::move(*holder)); });
  }
  st.held.clear();
}

proxy::FilterVerdict TtsfFilter::ProcessData(proxy::FilterContext& ctx,
                                             const proxy::StreamKey& key, net::Packet& packet,
                                             DirState& st) {
  auto& h = packet.tcp();
  const uint32_t seq = h.seq;

  // Take any transform submitted for this packet by an earlier out-pass
  // filter.
  bool has_transform = false;
  util::Bytes transform;
  if (auto it = pending_.find(packet.uid()); it != pending_.end()) {
    has_transform = true;
    transform = std::move(it->second);
    pending_.erase(it);
  }

  if (h.flags & net::kTcpRst) {
    // Pass RSTs with a frontier-offset seq correction.
    if (st.initialized) {
      h.seq = seq + static_cast<uint32_t>(SeqDiff(st.out_frontier, st.orig_frontier));
    }
    return proxy::FilterVerdict::kPass;
  }

  if (h.flags & net::kTcpSyn) {
    st.initialized = true;
    st.orig_frontier = seq + 1;
    st.out_frontier = seq + 1;
    st.records.clear();
    st.held.clear();
    st.transforms_used = false;
    st.bypass = false;  // A fresh connection re-arms transforming.
    st.restored = false;
    return proxy::FilterVerdict::kPass;  // SYNs are never transformed.
  }

  if (!st.initialized) {
    // Mid-stream attachment: adopt this packet's seq as the frontier.
    st.initialized = true;
    st.orig_frontier = seq;
    st.out_frontier = seq;
  }

  const uint32_t len = static_cast<uint32_t>(packet.payload().size());
  const bool fin = (h.flags & net::kTcpFin) != 0;

  if (len == 0 && !fin) {
    // Pure ACK / window update: shift seq by the frontier offset.
    h.seq = seq + static_cast<uint32_t>(SeqDiff(st.out_frontier, st.orig_frontier));
    return proxy::FilterVerdict::kPass;
  }

  stats_.bytes_in += len;

  if (st.restored) {
    // The map came from a checkpoint; the first live data packet tells us
    // whether the snapshot was current. Data at or below the restored
    // frontier confirms it (the conservative ack mapping kept the sender
    // behind the checkpointed frontier). Data beyond it means the crashed
    // gateway processed segments after the last checkpoint whose transforms
    // we never saw — the map is stale, so degrade to bypass-and-drain and
    // resync from the live stream.
    if (st.transforms_used && SeqGt(seq, st.orig_frontier)) {
      EnterBypass(ctx, key, "stale checkpoint: data beyond restored frontier");
    } else {
      st.restored = false;  // Live traffic confirmed the restored map.
    }
  }

  if (st.bypass) {
    // Degraded passthrough: constant shift, original payload, no records.
    // Any submitted transform was consumed above and is deliberately
    // ignored — bypass means the sender's own bytes, nothing else.
    h.seq = seq + static_cast<uint32_t>(SeqDiff(st.out_frontier, st.orig_frontier));
    ++stats_.bypass_passthrough;
    stats_.bytes_out += len;
    return proxy::FilterVerdict::kPass;
  }

  // Fast path: identity direction with no transform in play.
  if (!st.transforms_used && !has_transform) {
    const uint32_t end = seq + len + (fin ? 1 : 0);
    if (SeqGt(end, st.orig_frontier)) {
      st.orig_frontier = end;
      st.out_frontier = end;
    }
    stats_.bytes_out += len;
    return proxy::FilterVerdict::kPass;
  }
  st.transforms_used = true;

  if (SeqGt(seq, st.orig_frontier)) {
    // --- Beyond the frontier: out-of-order arrival while transforms are
    // active. We cannot assign it an output position (it depends on the
    // transform of the missing data), so hold it until the gap fills.
    if (st.held.size() < 256) {
      HeldPacket held;
      held.packet = packet.Clone();
      held.has_transform = has_transform;
      held.transform = std::move(transform);
      st.held[seq] = std::move(held);
    }
    return proxy::FilterVerdict::kDrop;  // Consumed (re-emitted in order).
  }

  if (seq == st.orig_frontier) {
    // --- In-order new data at the frontier ---
    const proxy::FilterVerdict verdict =
        ApplyInOrder(ctx, key, st, packet, has_transform, std::move(transform));
    ReleaseHeld(ctx, key, st);
    return verdict;
  }

  // --- Retransmission: replay the recorded transforms (§8.1.4) ---
  ++stats_.retransmissions_replayed;
  const uint32_t end = seq + len + (fin ? 1 : 0);

  // Collect records overlapping [seq, end).
  std::vector<const Record*> covered;
  for (const Record& r : st.records) {
    const uint32_t r_end = r.orig_seq + r.orig_len;
    if (SeqLt(r.orig_seq, end) && SeqGt(r_end, seq)) {
      covered.push_back(&r);
    }
  }
  if (covered.empty()) {
    // Entirely below the retained window (already acked end-to-end): map by
    // the pre-window offset and pass; the receiver will discard it.
    const uint32_t base_orig = st.records.empty() ? st.orig_frontier : st.records.front().orig_seq;
    const uint32_t base_out = st.records.empty() ? st.out_frontier : st.records.front().out_seq;
    h.seq = seq + static_cast<uint32_t>(SeqDiff(base_out, base_orig));
    stats_.bytes_out += len;
    return proxy::FilterVerdict::kPass;
  }

  // Rebuild the output image of the covered records in full (widening a
  // partial retransmission: duplicate delivery is safe, inconsistency isn't).
  util::Bytes out_payload;
  bool out_fin = false;
  for (const Record* r : covered) {
    if (r->is_fin) {
      out_fin = true;
      continue;
    }
    if (!r->cached.empty() || !r->identity) {
      out_payload.insert(out_payload.end(), r->cached.begin(), r->cached.end());
    } else {
      // Uncached identity (gap) record: slice what we can from the packet.
      const uint32_t r_end = r->orig_seq + r->orig_len;
      const uint32_t lo = SeqMax(r->orig_seq, seq);
      const uint32_t hi = tcp::SeqMin(r_end, seq + len);
      if (SeqLt(lo, hi)) {
        const size_t off = static_cast<uint32_t>(SeqDiff(lo, seq));
        const size_t n = static_cast<uint32_t>(SeqDiff(hi, lo));
        out_payload.insert(out_payload.end(), packet.payload().begin() + static_cast<long>(off),
                           packet.payload().begin() + static_cast<long>(off + n));
      }
    }
  }
  h.seq = covered.front()->out_seq;
  if (out_fin) {
    h.flags |= net::kTcpFin;
  } else {
    h.flags &= static_cast<uint8_t>(~net::kTcpFin);
  }
  stats_.bytes_out += out_payload.size();
  packet.set_payload(std::move(out_payload));

  if (packet.payload().empty() && !out_fin) {
    // Everything in range was dropped from the stream; answer the sender
    // directly if the receiver has already covered the preceding bytes.
    MaybeInjectTailAck(ctx, key, st, covered.back()->orig_seq + covered.back()->orig_len);
    return proxy::FilterVerdict::kDrop;
  }
  return proxy::FilterVerdict::kPass;
}

proxy::FilterVerdict TtsfFilter::ApplyInOrder(proxy::FilterContext& ctx,
                                              const proxy::StreamKey& key, DirState& st,
                                              net::Packet& packet, bool has_transform,
                                              util::Bytes transform) {
  auto& h = packet.tcp();
  const uint32_t seq = h.seq;
  const uint32_t len = static_cast<uint32_t>(packet.payload().size());
  const bool fin = (h.flags & net::kTcpFin) != 0;

  COMMA_DCHECK_EQ(seq, st.orig_frontier) << "ApplyInOrder called off the frontier";

  Record rec;
  rec.orig_seq = seq;
  rec.orig_len = len;
  rec.out_seq = st.out_frontier;
  if (has_transform) {
    rec.cached = std::move(transform);
    rec.out_len = static_cast<uint32_t>(rec.cached.size());
    rec.identity = false;
    ++stats_.segments_transformed;
    if (rec.out_len == 0) {
      ++stats_.segments_dropped;
    }
    if (rec.out_len < len) {
      // The byte reduction this transform removed from the wire — the
      // signal the Kati control loop watches (docs/observability.md).
      obs_.bytes_dropped->Inc(len - rec.out_len);
    }
  } else {
    rec.cached = packet.payload();
    rec.out_len = len;
    rec.identity = true;
  }
  stats_.bytes_out += rec.out_len;
  const uint32_t rec_out_end = rec.out_seq + rec.out_len;
  const bool drop_packet = rec.out_len == 0 && !fin;
  const uint32_t rec_orig_end = seq + len;
  h.seq = rec.out_seq;
  if (!rec.identity) {
    packet.set_payload(rec.cached);
  }
  if (len > 0) {
    AppendRecord(st, std::move(rec));
  }
  st.orig_frontier = rec_orig_end;
  st.out_frontier = rec_out_end;

  if (fin) {
    Record fr;
    fr.orig_seq = st.orig_frontier;
    fr.orig_len = 1;
    fr.out_seq = st.out_frontier;
    fr.out_len = 1;
    fr.identity = true;
    fr.is_fin = true;
    AppendRecord(st, std::move(fr));
    st.orig_frontier += 1;
    st.out_frontier += 1;
  }

  if (drop_packet) {
    MaybeInjectTailAck(ctx, key, st, rec_orig_end);
    return proxy::FilterVerdict::kDrop;
  }
  return proxy::FilterVerdict::kPass;
}

void TtsfFilter::ReleaseHeld(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                             DirState& st) {
  bool progressed = true;
  while (progressed && !st.held.empty()) {
    progressed = false;
    for (auto it = st.held.begin(); it != st.held.end();) {
      const uint32_t held_seq = it->second.packet->tcp().seq;
      if (SeqLt(held_seq, st.orig_frontier)) {
        // Stale: the gap filled through a wider retransmission.
        it = st.held.erase(it);
        continue;
      }
      if (held_seq == st.orig_frontier) {
        HeldPacket held = std::move(it->second);
        st.held.erase(it);
        const proxy::FilterVerdict verdict = ApplyInOrder(
            ctx, key, st, *held.packet, held.has_transform, std::move(held.transform));
        if (verdict == proxy::FilterVerdict::kPass) {
          // Defer emission so the packet that just filled the gap leaves
          // first and the receiver sees everything in order.
          auto holder = std::make_shared<net::PacketPtr>(std::move(held.packet));
          proxy::ServiceProxy* proxy = &ctx.proxy();
          ctx.simulator().Schedule(
              0, [proxy, holder] { proxy->InjectPacket(std::move(*holder)); });
        }
        progressed = true;
        break;  // Restart: the map ordering is plain uint32, not seq-space.
      }
      ++it;
    }
  }
}

void TtsfFilter::AppendRecord(DirState& st, Record rec) {
  st.records.push_back(std::move(rec));
  // Bound memory: keep at most 4096 records; the front ones are long acked.
  while (st.records.size() > 4096) {
    st.records.pop_front();
  }
}

void TtsfFilter::PruneAcked(DirState& st) {
  if (!st.ack_seen) {
    return;
  }
  while (!st.records.empty()) {
    const Record& r = st.records.front();
    if (SeqLeq(r.out_seq + r.out_len, st.max_acked_out)) {
      st.records.pop_front();
    } else {
      break;
    }
  }
}

uint32_t TtsfFilter::MapAckToOrig(const DirState& st, uint32_t ack_out) const {
  if (!st.initialized) {
    return ack_out;
  }
  if (st.records.empty()) {
    return ack_out + static_cast<uint32_t>(SeqDiff(st.orig_frontier, st.out_frontier));
  }
  const Record& first = st.records.front();
  if (SeqLt(ack_out, first.out_seq)) {
    // Below the retained window: the pruned prefix was contiguous, so the
    // first record's own offset applies.
    return ack_out + static_cast<uint32_t>(SeqDiff(first.orig_seq, first.out_seq));
  }
  uint32_t orig_pos = first.orig_seq;
  for (const Record& r : st.records) {
    const uint32_t r_out_end = r.out_seq + r.out_len;
    if (SeqGeq(ack_out, r_out_end)) {
      orig_pos = r.orig_seq + r.orig_len;
      continue;
    }
    if (SeqGt(ack_out, r.out_seq)) {
      // Partial ack inside a transformed record: round down — never
      // acknowledge original bytes whose image has not fully arrived.
      return r.orig_seq;
    }
    return orig_pos;
  }
  // Beyond every record: records are contiguous up to the frontier.
  return st.orig_frontier + static_cast<uint32_t>(SeqDiff(ack_out, st.out_frontier));
}

void TtsfFilter::MaybeInjectTailAck(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                                    DirState& st, uint32_t acked_orig) {
  // Only safe when the receiver has acknowledged everything up to the
  // dropped range — otherwise we would acknowledge undelivered data and
  // recreate the split-connection end-to-end violation (§5.1.2).
  // MapAckToOrig advances through zero-output-length records, so if the
  // receiver has acknowledged everything preceding the drop, the mapped ack
  // already covers the dropped bytes.
  if (!st.ack_seen || SeqLt(MapAckToOrig(st, st.max_acked_out), acked_orig)) {
    return;
  }
  net::TcpHeader h;
  h.src_port = key.dst_port;
  h.dst_port = key.src_port;
  h.seq = st.peer_seq;
  h.ack = acked_orig;
  h.flags = net::kTcpAck;
  h.window = st.peer_window != 0 ? st.peer_window : 8192;
  ++stats_.acks_injected;
  ctx.InjectPacket(net::Packet::MakeTcp(key.dst, key.src, h, {}));
}

// --- Failover state contract ---
//
// "TTSF" v1 blob layout (docs/robustness.md):
//   u32 n_dirs, then per direction:
//     StreamKey, u8 flags (initialized/ack_seen/transforms_used/bypass),
//     u32 orig_frontier, u32 out_frontier, u32 max_acked_out,
//     u32 peer_seq, u16 peer_window,
//     u32 n_records, per record: u32 orig_seq, u32 orig_len, u32 out_seq,
//       u32 out_len, u8 flags (identity/is_fin), u32 cached_len + bytes
//   string bypass_reason
// Held packets and pending transforms are rebuilt from the wire (the
// sender's RTO re-delivers them).

namespace {
constexpr char kTtsfStateMagic[] = "TTSF";
constexpr uint8_t kTtsfStateVersion = 1;
// Import sanity caps; a well-formed exporter never exceeds them (records are
// bounded at 4096 per direction, payloads by the MTU).
constexpr uint32_t kMaxStateDirs = 1024;
constexpr uint32_t kMaxStateRecords = 4096;
constexpr uint32_t kMaxStateCached = 65536;
}  // namespace

proxy::FilterStateKind TtsfFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool TtsfFilter::ExportState(util::Bytes* out) const {
  if (dirs_.empty()) {
    return false;
  }
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kTtsfStateMagic, kTtsfStateVersion);
  w.WriteU32(static_cast<uint32_t>(dirs_.size()));
  for (const auto& [key, st] : dirs_) {
    proxy::WriteStreamKey(&w, key);
    uint8_t flags = 0;
    flags |= st.initialized ? 1u : 0u;
    flags |= st.ack_seen ? 2u : 0u;
    flags |= st.transforms_used ? 4u : 0u;
    flags |= st.bypass ? 8u : 0u;
    w.WriteU8(flags);
    w.WriteU32(st.orig_frontier);
    w.WriteU32(st.out_frontier);
    w.WriteU32(st.max_acked_out);
    w.WriteU32(st.peer_seq);
    w.WriteU16(st.peer_window);
    w.WriteU32(static_cast<uint32_t>(st.records.size()));
    for (const Record& r : st.records) {
      w.WriteU32(r.orig_seq);
      w.WriteU32(r.orig_len);
      w.WriteU32(r.out_seq);
      w.WriteU32(r.out_len);
      uint8_t rflags = 0;
      rflags |= r.identity ? 1u : 0u;
      rflags |= r.is_fin ? 2u : 0u;
      w.WriteU8(rflags);
      w.WriteU32(static_cast<uint32_t>(r.cached.size()));
      w.WriteBytes(r.cached);
    }
  }
  w.WriteString(bypass_reason_);
  return true;
}

bool TtsfFilter::ImportState(proxy::FilterContext&, const util::Bytes& in, std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) {
      *error = std::string("ttsf import: ") + what;
    }
    return false;
  };
  util::ByteReader r(in);
  std::optional<uint8_t> version = proxy::ReadStateHeader(&r, kTtsfStateMagic);
  if (!version.has_value()) {
    return fail("bad magic");
  }
  if (*version != kTtsfStateVersion) {
    return fail("unsupported version");
  }
  const uint32_t n_dirs = r.ReadU32();
  if (r.failed() || n_dirs > kMaxStateDirs) {
    return fail("bad direction count");
  }
  std::map<proxy::StreamKey, DirState> dirs;
  for (uint32_t d = 0; d < n_dirs; ++d) {
    const proxy::StreamKey key = proxy::ReadStreamKey(&r);
    DirState st;
    const uint8_t flags = r.ReadU8();
    st.initialized = (flags & 1u) != 0;
    st.ack_seen = (flags & 2u) != 0;
    st.transforms_used = (flags & 4u) != 0;
    st.bypass = (flags & 8u) != 0;
    st.orig_frontier = r.ReadU32();
    st.out_frontier = r.ReadU32();
    st.max_acked_out = r.ReadU32();
    st.peer_seq = r.ReadU32();
    st.peer_window = r.ReadU16();
    const uint32_t n_records = r.ReadU32();
    if (r.failed() || n_records > kMaxStateRecords) {
      return fail("bad record count");
    }
    for (uint32_t i = 0; i < n_records; ++i) {
      Record rec;
      rec.orig_seq = r.ReadU32();
      rec.orig_len = r.ReadU32();
      rec.out_seq = r.ReadU32();
      rec.out_len = r.ReadU32();
      const uint8_t rflags = r.ReadU8();
      rec.identity = (rflags & 1u) != 0;
      rec.is_fin = (rflags & 2u) != 0;
      const uint32_t cached_len = r.ReadU32();
      if (r.failed() || cached_len > kMaxStateCached) {
        return fail("bad cached payload");
      }
      rec.cached = r.ReadBytes(cached_len);
      st.records.push_back(std::move(rec));
    }
    if (r.failed()) {
      return fail("truncated direction");
    }
    // The map resumes provisionally; the first live packet confirms or
    // invalidates it (see ProcessData). Bypassed directions stay bypassed.
    st.restored = st.initialized && !st.bypass;
    dirs[key] = std::move(st);
  }
  const std::string reason = r.ReadString();
  if (r.failed()) {
    return fail("truncated blob");
  }
  dirs_ = std::move(dirs);
  pending_.clear();
  if (!reason.empty() && bypass_reason_.empty()) {
    bypass_reason_ = reason;
  }
  return true;
}

std::string TtsfFilter::Status() const {
  std::string out = util::Format(
      "transformed=%llu dropped=%llu replayed=%llu acks_remapped=%llu acks_injected=%llu "
      "bytes %llu->%llu",
      static_cast<unsigned long long>(stats_.segments_transformed),
      static_cast<unsigned long long>(stats_.segments_dropped),
      static_cast<unsigned long long>(stats_.retransmissions_replayed),
      static_cast<unsigned long long>(stats_.acks_remapped),
      static_cast<unsigned long long>(stats_.acks_injected),
      static_cast<unsigned long long>(stats_.bytes_in),
      static_cast<unsigned long long>(stats_.bytes_out));
  if (stats_.bypass_entries > 0) {
    out += util::Format(" BYPASS entries=%llu drained=%llu passthrough=%llu reason=\"%s\"",
                        static_cast<unsigned long long>(stats_.bypass_entries),
                        static_cast<unsigned long long>(stats_.bypass_drained),
                        static_cast<unsigned long long>(stats_.bypass_passthrough),
                        bypass_reason_.c_str());
  }
  return out;
}

}  // namespace comma::filters
