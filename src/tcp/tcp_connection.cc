#include "src/tcp/tcp_connection.h"

#include <algorithm>
#include <iterator>

#include "src/tcp/tcp_stack.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace comma::tcp {

const char* TcpStateName(TcpState s) {
  // Indexed by TcpState, in its declaration order.
  static constexpr const char* kNames[] = {
      "CLOSED",     "LISTEN",     "SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1",
      "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING",  "LAST_ACK", "TIME_WAIT",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(TcpState::kTimeWait) + 1);
  const auto i = static_cast<size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "?";
}

TcpConnection::TcpConnection(TcpStack* stack, net::Ipv4Address local_addr, uint16_t local_port,
                             net::Ipv4Address remote_addr, uint16_t remote_port,
                             const TcpConfig& config, uint32_t iss)
    : stack_(stack),
      local_addr_(local_addr),
      local_port_(local_port),
      remote_addr_(remote_addr),
      remote_port_(remote_port),
      config_(config),
      iss_(iss),
      snd_una_(iss),
      snd_nxt_(iss),
      snd_buf_seq_(iss + 1),
      cwnd_(config.initial_cwnd_segments * config.mss),
      rto_(config.rto_initial) {
  config_.recv_buffer = std::min<uint32_t>(config_.recv_buffer, 65535);
}

TcpConnection::~TcpConnection() {
  CancelRetransmitTimer();
  CancelPersistTimer();
  if (time_wait_timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(time_wait_timer_);
  }
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

size_t TcpConnection::Send(const util::Bytes& data) { return Send(data.data(), data.size()); }

size_t TcpConnection::Send(const uint8_t* data, size_t len) {
  if (fin_pending_ || fin_sent_ || state_ == TcpState::kClosed ||
      state_ == TcpState::kTimeWait || state_ == TcpState::kLastAck) {
    return 0;
  }
  const size_t space =
      config_.send_buffer > send_buffer_.size() ? config_.send_buffer - send_buffer_.size() : 0;
  const size_t accepted = std::min(len, space);
  send_buffer_.insert(send_buffer_.end(), data, data + accepted);
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    TrySend();
  }
  return accepted;
}

util::Bytes TcpConnection::Read(size_t max) {
  const size_t n = std::min(max, recv_queue_.size());
  util::Bytes out(recv_queue_.begin(), recv_queue_.begin() + static_cast<long>(n));
  recv_queue_.erase(recv_queue_.begin(), recv_queue_.begin() + static_cast<long>(n));
  if (n > 0 && state_ != TcpState::kClosed) {
    // Window may have re-opened; let the peer know.
    SendAck();
  }
  return out;
}

void TcpConnection::Close() {
  switch (state_) {
    case TcpState::kSynSent:
      BecomeClosed("closed before establishment");
      return;
    case TcpState::kEstablished:
    case TcpState::kSynReceived:
    case TcpState::kCloseWait:
      fin_pending_ = true;
      TrySend();
      return;
    default:
      return;  // Already closing or closed.
  }
}

void TcpConnection::Abort() {
  if (state_ != TcpState::kClosed) {
    SendReset();
    BecomeClosed("aborted");
  }
}

size_t TcpConnection::BufferedSendBytes() const { return send_buffer_.size(); }

std::string TcpConnection::Describe() const {
  return util::Format("%s:%u -> %s:%u %s", local_addr_.ToString().c_str(), local_port_,
                      remote_addr_.ToString().c_str(), remote_port_, TcpStateName(state_));
}

// ---------------------------------------------------------------------------
// Open handshakes
// ---------------------------------------------------------------------------

void TcpConnection::StartActiveOpen() {
  state_ = TcpState::kSynSent;
  SendSyn(/*with_ack=*/false);
  snd_nxt_ = iss_ + 1;
  ArmRetransmitTimer();
}

void TcpConnection::StartPassiveOpen(const net::Packet& syn) {
  irs_ = syn.tcp().seq;
  rcv_nxt_ = irs_ + 1;
  snd_wnd_ = syn.tcp().window;
  state_ = TcpState::kSynReceived;
  SendSyn(/*with_ack=*/true);
  snd_nxt_ = iss_ + 1;
  ArmRetransmitTimer();
}

void TcpConnection::SendSyn(bool with_ack) {
  uint8_t flags = net::kTcpSyn;
  if (with_ack) {
    flags |= net::kTcpAck;
  }
  EmitSegment(iss_, flags, {});
}

// ---------------------------------------------------------------------------
// Segment arrival
// ---------------------------------------------------------------------------

void TcpConnection::HandleSegment(const net::Packet& p) {
  ++stats_.segments_received;

  if (p.tcp().flags & net::kTcpRst) {
    if (state_ != TcpState::kClosed) {
      BecomeClosed("connection reset by peer");
      if (on_error_) {
        on_error_("connection reset by peer");
      }
    }
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
      return;
    case TcpState::kSynSent:
      HandleSynSent(p);
      return;
    case TcpState::kSynReceived: {
      if (p.tcp().flags & net::kTcpSyn) {
        // Retransmitted SYN: our SYN+ACK was lost.
        SendSyn(/*with_ack=*/true);
        return;
      }
      if ((p.tcp().flags & net::kTcpAck) && SeqGeq(p.tcp().ack, iss_ + 1)) {
        state_ = TcpState::kEstablished;
        snd_una_ = SeqMax(snd_una_, iss_ + 1);
        CancelRetransmitTimer();
        retries_ = 0;
        if (on_connected_) {
          on_connected_();
        }
        // Fall through to normal processing: the ACK may carry data.
        ProcessAck(p);
        ProcessPayload(p);
        ProcessFin(p);
        TrySend();
      }
      return;
    }
    case TcpState::kTimeWait:
      // Retransmitted FIN: re-ack it.
      if (p.tcp().flags & net::kTcpFin) {
        SendAck();
      }
      return;
    default:
      ProcessAck(p);
      ProcessPayload(p);
      ProcessFin(p);
      if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait ||
          state_ == TcpState::kFinWait1 || state_ == TcpState::kLastAck ||
          state_ == TcpState::kClosing) {
        TrySend();
      }
      return;
  }
}

void TcpConnection::HandleSynSent(const net::Packet& p) {
  const auto& h = p.tcp();
  if (!(h.flags & net::kTcpSyn)) {
    return;
  }
  if ((h.flags & net::kTcpAck) && !SeqGeq(h.ack, iss_ + 1)) {
    return;  // Stale ack.
  }
  irs_ = h.seq;
  rcv_nxt_ = h.seq + 1;
  snd_wnd_ = h.window;
  if (h.flags & net::kTcpAck) {
    snd_una_ = h.ack;
    state_ = TcpState::kEstablished;
    CancelRetransmitTimer();
    retries_ = 0;
    backoff_shift_ = 0;
    SendAck();
    if (on_connected_) {
      on_connected_();
    }
    TrySend();
  } else {
    // Simultaneous open.
    state_ = TcpState::kSynReceived;
    SendSyn(/*with_ack=*/true);
  }
}

void TcpConnection::ProcessAck(const net::Packet& p) {
  const auto& h = p.tcp();
  if (!(h.flags & net::kTcpAck)) {
    return;
  }
  const uint32_t ack = h.ack;
  if (SeqGt(ack, snd_nxt_)) {
    SendAck();  // Acks data we never sent.
    return;
  }
  if (SeqLt(ack, snd_una_)) {
    return;  // Old ack.
  }

  const bool window_was_zero = (snd_wnd_ == 0);
  snd_wnd_ = h.window;
  if (snd_wnd_ == 0) {
    ++stats_.zero_window_acks_received;
  }

  if (SeqGt(ack, snd_una_)) {
    const uint32_t acked = static_cast<uint32_t>(SeqDiff(ack, snd_una_));
    // Trim acknowledged bytes from the send buffer (FIN/SYN occupy sequence
    // space but no buffer bytes, hence the min()).
    if (SeqGt(ack, snd_buf_seq_)) {
      const size_t trim =
          std::min<size_t>(static_cast<uint32_t>(SeqDiff(ack, snd_buf_seq_)), send_buffer_.size());
      send_buffer_.erase(send_buffer_.begin(), send_buffer_.begin() + static_cast<long>(trim));
      snd_buf_seq_ += static_cast<uint32_t>(trim);
    }
    snd_una_ = ack;
    COMMA_DCHECK(SeqLeq(snd_una_, snd_nxt_)) << "snd_una overran snd_nxt";
    retries_ = 0;
    backoff_shift_ = 0;
    MaybeCompleteRttSample(ack);

    if (in_fast_recovery_) {
      if (SeqGeq(ack, recover_)) {
        // Full recovery (NewReno): deflate and resume congestion avoidance.
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
        dupack_count_ = 0;
      } else {
        // Partial ack: the next hole is lost too; retransmit it immediately.
        if (RetransmitAtSndUna()) {
          ++stats_.fast_retransmits;
        }
        cwnd_ = (cwnd_ > acked ? cwnd_ - acked : config_.mss) + config_.mss;
        ArmRetransmitTimer();
      }
    } else {
      dupack_count_ = 0;
      OnNewAckReno(acked);
    }

    if (fin_sent_ && SeqGt(ack, fin_seq_)) {
      // Our FIN is acknowledged.
      switch (state_) {
        case TcpState::kFinWait1:
          state_ = fin_received_ ? TcpState::kTimeWait : TcpState::kFinWait2;
          if (state_ == TcpState::kTimeWait) {
            EnterTimeWait();
          }
          break;
        case TcpState::kClosing:
          EnterTimeWait();
          break;
        case TcpState::kLastAck:
          BecomeClosed("closed");
          return;
        default:
          break;
      }
    }

    if (snd_una_ == snd_nxt_) {
      CancelRetransmitTimer();
    } else {
      ArmRetransmitTimer();
    }
    if (on_writable_ && send_buffer_.size() < config_.send_buffer) {
      on_writable_();
    }
  } else if (ack == snd_una_) {
    // Potential duplicate ack (RFC 5681: no data, no window change, data
    // outstanding). Window updates are processed but don't count as dupacks.
    const bool is_dupack = p.payload().empty() && !(h.flags & (net::kTcpSyn | net::kTcpFin)) &&
                           FlightSize() > 0 && !window_was_zero && snd_wnd_ != 0;
    if (is_dupack) {
      ++stats_.dupacks_received;
      if (in_fast_recovery_) {
        cwnd_ += config_.mss;  // Inflate.
      } else if (++dupack_count_ == 3) {
        EnterFastRetransmit();
      }
    }
  }

  // Zero-window handling (thesis §8.2.2): a zero window stalls transmission;
  // the persist timer keeps probing so the connection stays alive
  // indefinitely. When the window re-opens, restart from snd_una_ at once —
  // this is the "restart faster" property ZWSM services rely on.
  if (snd_wnd_ == 0) {
    if (SendableBacklog() > 0 || FlightSize() > 0) {
      CancelRetransmitTimer();
      ArmPersistTimer();
    }
  } else {
    if (window_was_zero) {
      CancelPersistTimer();
      persist_backoff_shift_ = 0;
      if (FlightSize() > 0) {
        snd_nxt_ = snd_una_;  // Go-back-N restart after the stall.
      }
    }
  }
}

void TcpConnection::ProcessPayload(const net::Packet& p) {
  if (p.payload().empty()) {
    return;
  }
  const uint32_t seg_seq = p.tcp().seq;
  const util::Bytes& data = p.payload();
  const uint32_t seg_end = seg_seq + static_cast<uint32_t>(data.size());

  if (SeqLeq(seg_end, rcv_nxt_)) {
    // Entirely old data (retransmission already delivered): re-ack.
    SendAck();
    return;
  }
  if (SeqGt(seg_seq, rcv_nxt_)) {
    // Out of order: stash for reassembly and emit a duplicate ack.
    ++stats_.out_of_order_segments;
    const size_t window = AdvertisedWindow();
    if (window > 0 && SeqLt(seg_seq, rcv_nxt_ + static_cast<uint32_t>(window))) {
      auto [it, inserted] = reassembly_.try_emplace(seg_seq, data);
      if (!inserted && it->second.size() < data.size()) {
        it->second = data;
      }
    }
    ++stats_.dupacks_sent;
    SendAck();
    return;
  }

  // In-order (possibly with stale prefix): trim and accept up to our window.
  const size_t skip = static_cast<uint32_t>(SeqDiff(rcv_nxt_, seg_seq));
  size_t take = data.size() - skip;
  take = std::min<size_t>(take, AdvertisedWindow());
  if (take == 0) {
    SendAck();  // Window full: discard, re-advertise.
    return;
  }
  recv_queue_.insert(recv_queue_.end(), data.begin() + static_cast<long>(skip),
                     data.begin() + static_cast<long>(skip + take));
  rcv_nxt_ += static_cast<uint32_t>(take);
  stats_.bytes_received += take;
  DeliverInOrderData();
  SendAck();
}

void TcpConnection::DeliverInOrderData() {
  // Pull any now-contiguous reassembly segments.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = reassembly_.begin(); it != reassembly_.end();) {
      const uint32_t seq = it->first;
      const util::Bytes& seg = it->second;
      const uint32_t end = seq + static_cast<uint32_t>(seg.size());
      if (SeqLeq(end, rcv_nxt_)) {
        it = reassembly_.erase(it);  // Fully stale.
        continue;
      }
      if (SeqLeq(seq, rcv_nxt_)) {
        const size_t skip = static_cast<uint32_t>(SeqDiff(rcv_nxt_, seq));
        size_t take = seg.size() - skip;
        take = std::min<size_t>(take, AdvertisedWindow());
        if (take > 0) {
          recv_queue_.insert(recv_queue_.end(), seg.begin() + static_cast<long>(skip),
                             seg.begin() + static_cast<long>(skip + take));
          rcv_nxt_ += static_cast<uint32_t>(take);
          stats_.bytes_received += take;
          progressed = true;
        }
        it = reassembly_.erase(it);
        continue;
      }
      ++it;
    }
  }
  if (config_.auto_consume && !recv_queue_.empty() && on_data_) {
    util::Bytes chunk(recv_queue_.begin(), recv_queue_.end());
    recv_queue_.clear();
    on_data_(chunk);
  }
}

void TcpConnection::ProcessFin(const net::Packet& p) {
  if (!(p.tcp().flags & net::kTcpFin)) {
    return;
  }
  const uint32_t fin_seq = p.tcp().seq + static_cast<uint32_t>(p.payload().size());
  if (SeqGt(fin_seq, rcv_nxt_)) {
    // FIN beyond in-order data (data before it was lost): dupack, wait.
    SendAck();
    return;
  }
  if (fin_received_) {
    SendAck();  // Retransmitted FIN.
    return;
  }
  fin_received_ = true;
  fin_rcv_seq_ = fin_seq;
  rcv_nxt_ = fin_seq + 1;
  SendAck();
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked: simultaneous close.
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;
  }
  if (on_remote_close_) {
    on_remote_close_();
  }
}

// ---------------------------------------------------------------------------
// Transmission
// ---------------------------------------------------------------------------

bool TcpConnection::RetransmitAtSndUna() {
  // Retransmit the oldest unacknowledged segment: real buffer bytes if any
  // remain at snd_una_, otherwise a bare FIN if that is what is outstanding.
  const uint32_t buf_end = snd_buf_seq_ + static_cast<uint32_t>(send_buffer_.size());
  const size_t data_avail =
      SeqLt(snd_una_, buf_end) ? static_cast<uint32_t>(SeqDiff(buf_end, snd_una_)) : 0;
  const size_t len = std::min<size_t>(config_.mss, data_avail);
  if (len > 0) {
    SendSegment(snd_una_, len, net::kTcpAck);
    stats_.bytes_retransmitted += len;
    return true;
  }
  if (fin_sent_ && SeqLeq(snd_una_, fin_seq_)) {
    EmitSegment(fin_seq_, net::kTcpFin | net::kTcpAck, {});
    return true;
  }
  return false;
}

size_t TcpConnection::SendableBacklog() const {
  const uint32_t buf_end = snd_buf_seq_ + static_cast<uint32_t>(send_buffer_.size());
  if (SeqGeq(snd_nxt_, buf_end)) {
    return 0;
  }
  return static_cast<uint32_t>(SeqDiff(buf_end, snd_nxt_));
}

void TcpConnection::TrySend() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }

  while (true) {
    const uint32_t window = std::min(cwnd_, snd_wnd_);
    const uint32_t flight = FlightSize();
    if (window <= flight) {
      break;
    }
    const size_t usable = window - flight;
    const size_t backlog = SendableBacklog();
    const size_t len = std::min({static_cast<size_t>(config_.mss), backlog, usable});
    if (len == 0) {
      break;
    }
    SendSegment(snd_nxt_, len, net::kTcpAck);
    stats_.bytes_sent += len;
    MaybeStartRttSample(snd_nxt_, len);
    snd_nxt_ += static_cast<uint32_t>(len);
  }

  SendFinIfNeeded();

  if (FlightSize() > 0 && retransmit_timer_ == sim::kInvalidTimerId &&
      persist_timer_ == sim::kInvalidTimerId) {
    ArmRetransmitTimer();
  }
  if (snd_wnd_ == 0 && (SendableBacklog() > 0 || fin_pending_) &&
      persist_timer_ == sim::kInvalidTimerId) {
    CancelRetransmitTimer();
    ArmPersistTimer();
  }
}

void TcpConnection::SendFinIfNeeded() {
  if (!fin_pending_ || fin_sent_ || SendableBacklog() > 0) {
    return;
  }
  // All data is out; send FIN (it rides the next sequence number).
  fin_seq_ = snd_nxt_;
  EmitSegment(snd_nxt_, net::kTcpFin | net::kTcpAck, {});
  snd_nxt_ += 1;
  fin_sent_ = true;
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      break;
    default:
      break;
  }
  ArmRetransmitTimer();
}

void TcpConnection::SendSegment(uint32_t seq, size_t len, uint8_t flags) {
  // Extract payload bytes [seq, seq+len) from the send buffer.
  COMMA_DCHECK(SeqLeq(snd_buf_seq_, seq)) << "segment seq precedes the send buffer base";
  util::Bytes payload;
  if (len > 0) {
    const size_t offset = static_cast<uint32_t>(SeqDiff(seq, snd_buf_seq_));
    const size_t avail = send_buffer_.size() > offset ? send_buffer_.size() - offset : 0;
    const size_t n = std::min(len, avail);
    payload.assign(send_buffer_.begin() + static_cast<long>(offset),
                   send_buffer_.begin() + static_cast<long>(offset + n));
  }
  if (fin_sent_ && seq + static_cast<uint32_t>(payload.size()) == fin_seq_) {
    flags |= net::kTcpFin;  // The segment ends exactly where the FIN sits.
  }
  EmitSegment(seq, flags, std::move(payload));
}

void TcpConnection::SendAck() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen ||
      state_ == TcpState::kSynSent) {
    return;
  }
  EmitSegment(snd_nxt_, net::kTcpAck, {});
}

void TcpConnection::SendReset() {
  net::TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.flags = net::kTcpRst | net::kTcpAck;
  h.window = 0;
  stack_->SendPacket(net::Packet::MakeTcp(local_addr_, remote_addr_, h, {}));
}

void TcpConnection::EmitSegment(uint32_t seq, uint8_t flags, util::Bytes payload) {
  net::TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = seq;
  h.ack = (flags & net::kTcpAck) ? rcv_nxt_ : 0;
  h.flags = flags;
  h.window = AdvertisedWindow();
  ++stats_.segments_sent;
  stack_->SendPacket(net::Packet::MakeTcp(local_addr_, remote_addr_, h, std::move(payload)));
}

uint16_t TcpConnection::AdvertisedWindow() const {
  size_t pending = recv_queue_.size();
  if (pending >= config_.recv_buffer) {
    return 0;
  }
  return static_cast<uint16_t>(
      std::min<size_t>(config_.recv_buffer - pending, 65535));
}

// ---------------------------------------------------------------------------
// Congestion control
// ---------------------------------------------------------------------------

void TcpConnection::OnNewAckReno(uint32_t acked_bytes) {
  if (cwnd_ < ssthresh_) {
    // Slow start: exponential growth.
    cwnd_ += std::min(acked_bytes, config_.mss);
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    bytes_acked_partial_ += acked_bytes;
    if (bytes_acked_partial_ >= cwnd_) {
      bytes_acked_partial_ -= cwnd_;
      cwnd_ += config_.mss;
    }
  }
  cwnd_ = std::min<uint32_t>(cwnd_, 10 * 1024 * 1024);
}

void TcpConnection::EnterFastRetransmit() {
  ++stats_.fast_retransmits;
  ssthresh_ = std::max(FlightSize() / 2, 2 * config_.mss);
  recover_ = snd_nxt_;
  in_fast_recovery_ = true;
  RetransmitAtSndUna();  // Retransmit the missing segment.
  cwnd_ = ssthresh_ + 3 * config_.mss;
  rtt_sampling_ = false;  // Karn: invalidate the sample.
  ArmRetransmitTimer();
}

void TcpConnection::OnRetransmitTimeout() {
  retransmit_timer_ = sim::kInvalidTimerId;
  ++stats_.retransmit_timeouts;
  ++retries_;

  const uint32_t max_retries =
      (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived)
          ? config_.max_syn_retries
          : config_.max_data_retries;
  if (retries_ > max_retries) {
    BecomeClosed("retransmission limit exceeded");
    if (on_error_) {
      on_error_("retransmission limit exceeded");
    }
    return;
  }

  rtt_sampling_ = false;  // Karn's rule.
  backoff_shift_ = std::min<uint32_t>(backoff_shift_ + 1, 12);

  if (state_ == TcpState::kSynSent) {
    SendSyn(/*with_ack=*/false);
    ArmRetransmitTimer();
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    SendSyn(/*with_ack=*/true);
    ArmRetransmitTimer();
    return;
  }

  // A zero peer window means this is a stall, not congestion: hand off to the
  // persist machinery instead of retransmitting into a closed window.
  if (snd_wnd_ == 0) {
    ArmPersistTimer();
    return;
  }

  // Congestion response: collapse to one segment, back off, go-back-N.
  ssthresh_ = std::max(FlightSize() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  in_fast_recovery_ = false;
  dupack_count_ = 0;
  bytes_acked_partial_ = 0;

  if (FlightSize() > 0) {
    RetransmitAtSndUna();
  }
  ArmRetransmitTimer();
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpConnection::ArmRetransmitTimer() {
  CancelRetransmitTimer();
  sim::Duration timeout = std::min<sim::Duration>(rto_ << backoff_shift_, config_.rto_max);
  retransmit_timer_ =
      stack_->simulator()->ScheduleTimer(timeout, [this] { OnRetransmitTimeout(); });
}

void TcpConnection::CancelRetransmitTimer() {
  if (retransmit_timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(retransmit_timer_);
    retransmit_timer_ = sim::kInvalidTimerId;
  }
}

void TcpConnection::ArmPersistTimer() {
  if (persist_timer_ != sim::kInvalidTimerId) {
    return;
  }
  sim::Duration timeout = std::min<sim::Duration>(
      config_.persist_min << persist_backoff_shift_, config_.persist_max);
  persist_timer_ = stack_->simulator()->ScheduleTimer(timeout, [this] { OnPersistTimeout(); });
}

void TcpConnection::CancelPersistTimer() {
  if (persist_timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(persist_timer_);
    persist_timer_ = sim::kInvalidTimerId;
  }
}

void TcpConnection::OnPersistTimeout() {
  persist_timer_ = sim::kInvalidTimerId;
  if (snd_wnd_ != 0) {
    TrySend();  // Window opened while the timer was pending.
    return;
  }
  // Send a one-byte window probe from the front of the unacknowledged data.
  const uint32_t buf_end = snd_buf_seq_ + static_cast<uint32_t>(send_buffer_.size());
  if (SeqLt(snd_una_, buf_end)) {
    ++stats_.persist_probes_sent;
    SendSegment(snd_una_, 1, net::kTcpAck);
    snd_nxt_ = SeqMax(snd_nxt_, snd_una_ + 1);
  } else if (fin_pending_ && !fin_sent_) {
    ++stats_.persist_probes_sent;
    SendFinIfNeeded();
  }
  persist_backoff_shift_ = std::min<uint32_t>(persist_backoff_shift_ + 1, 7);
  ArmPersistTimer();
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  CancelRetransmitTimer();
  CancelPersistTimer();
  time_wait_timer_ = stack_->simulator()->ScheduleTimer(config_.time_wait, [this] {
    time_wait_timer_ = sim::kInvalidTimerId;
    BecomeClosed("closed");
  });
}

void TcpConnection::BecomeClosed(const std::string& reason) {
  if (state_ == TcpState::kClosed) {
    return;
  }
  state_ = TcpState::kClosed;
  CancelRetransmitTimer();
  CancelPersistTimer();
  if (time_wait_timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(time_wait_timer_);
    time_wait_timer_ = sim::kInvalidTimerId;
  }
  stack_->node()->tracer().Logf(sim::TraceLevel::kDebug, "tcp", "%s: %s", Describe().c_str(),
                                reason.c_str());
  stack_->Retire(this);
  if (on_closed_) {
    on_closed_();
  }
}

// ---------------------------------------------------------------------------
// RTT estimation (Jacobson/Karels; Karn's rule via rtt_sampling_ flag)
// ---------------------------------------------------------------------------

void TcpConnection::MaybeStartRttSample(uint32_t seq, size_t len) {
  if (rtt_sampling_) {
    return;
  }
  rtt_sampling_ = true;
  rtt_seq_ = seq + static_cast<uint32_t>(len);
  rtt_start_ = stack_->simulator()->Now();
}

void TcpConnection::MaybeCompleteRttSample(uint32_t ack) {
  if (!rtt_sampling_ || SeqLt(ack, rtt_seq_)) {
    return;
  }
  rtt_sampling_ = false;
  UpdateRtt(stack_->simulator()->Now() - rtt_start_);
}

void TcpConnection::UpdateRtt(sim::Duration sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::Duration err = sample - srtt_;
    srtt_ += err / 8;
    rttvar_ += ((err < 0 ? -err : err) - rttvar_) / 4;
  }
  rto_ = srtt_ + std::max<sim::Duration>(4 * rttvar_, 10 * sim::kMillisecond);
  rto_ = std::clamp(rto_, config_.rto_min, config_.rto_max);
}

}  // namespace comma::tcp
