// A TCP Reno connection endpoint (RFC 793 + RFC 2581 congestion control).
//
// Implements everything the thesis's transparent services interact with:
//  - sliding-window transfer with cumulative ACKs;
//  - Jacobson/Karn RTT estimation, exponential RTO backoff (§2.2);
//  - slow start, congestion avoidance, fast retransmit, fast recovery;
//  - zero-window stall + persist-timer probing (the mechanism BSSP-style
//    ZWSM services exploit, §8.2.2);
//  - out-of-order reassembly and immediate dupack generation (what Snoop
//    suppresses, §8.2.1);
//  - FIN/close handshake and TIME_WAIT.
//
// Connections are owned by a TcpStack; applications hold non-owning pointers
// and observe the connection through callbacks.
#ifndef COMMA_TCP_TCP_CONNECTION_H_
#define COMMA_TCP_TCP_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/tcp/seq.h"

namespace comma::tcp {

class TcpStack;

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

struct TcpConfig {
  uint32_t mss = 1000;                  // Payload bytes per segment.
  uint32_t recv_buffer = 32 * 1024;     // Advertised-window ceiling (<= 65535).
  uint32_t send_buffer = 64 * 1024;     // Send-side buffering cap.
  sim::Duration rto_min = 500 * sim::kMillisecond;   // 4.4BSD-era floor.
  sim::Duration rto_max = 64 * sim::kSecond;
  sim::Duration rto_initial = 3 * sim::kSecond;
  sim::Duration persist_min = 500 * sim::kMillisecond;
  sim::Duration persist_max = 60 * sim::kSecond;
  sim::Duration time_wait = 2 * sim::kSecond;        // 2*MSL, compressed for sim.
  uint32_t initial_cwnd_segments = 1;
  uint32_t max_syn_retries = 8;
  uint32_t max_data_retries = 12;
  // When true (default) received data is handed to on_data and the advertised
  // window never closes. When false, data accumulates in a receive queue the
  // application drains with Read(); the advertised window shrinks as the
  // queue fills (needed to exercise flow control / ZWSM behaviour).
  bool auto_consume = true;
};

struct TcpStats {
  uint64_t bytes_sent = 0;        // First transmissions only.
  uint64_t bytes_retransmitted = 0;
  uint64_t bytes_received = 0;    // In-order payload delivered.
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t retransmit_timeouts = 0;
  uint64_t fast_retransmits = 0;
  uint64_t dupacks_received = 0;
  uint64_t dupacks_sent = 0;
  uint64_t out_of_order_segments = 0;
  uint64_t zero_window_acks_received = 0;
  uint64_t persist_probes_sent = 0;
};

class TcpConnection {
 public:
  using DataCallback = std::function<void(const util::Bytes&)>;
  using EventCallback = std::function<void()>;
  using ErrorCallback = std::function<void(const std::string&)>;

  TcpConnection(TcpStack* stack, net::Ipv4Address local_addr, uint16_t local_port,
                net::Ipv4Address remote_addr, uint16_t remote_port, const TcpConfig& config,
                uint32_t iss);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- Application interface ---
  // Queues bytes for transmission; returns the number accepted (bounded by
  // the send-buffer cap).
  size_t Send(const util::Bytes& data);
  size_t Send(const uint8_t* data, size_t len);
  // Drains up to `max` bytes of received data (auto_consume == false mode).
  util::Bytes Read(size_t max);
  // Graceful close: FIN after pending data drains.
  void Close();
  // Hard reset: sends RST and drops the connection.
  void Abort();

  void set_on_connected(EventCallback cb) { on_connected_ = std::move(cb); }
  void set_on_data(DataCallback cb) { on_data_ = std::move(cb); }
  void set_on_remote_close(EventCallback cb) { on_remote_close_ = std::move(cb); }
  void set_on_closed(EventCallback cb) { on_closed_ = std::move(cb); }
  void set_on_error(ErrorCallback cb) { on_error_ = std::move(cb); }
  void set_on_writable(EventCallback cb) { on_writable_ = std::move(cb); }

  // --- Introspection ---
  TcpState state() const { return state_; }
  const TcpStats& stats() const { return stats_; }
  net::Ipv4Address local_addr() const { return local_addr_; }
  uint16_t local_port() const { return local_port_; }
  net::Ipv4Address remote_addr() const { return remote_addr_; }
  uint16_t remote_port() const { return remote_port_; }
  uint32_t cwnd() const { return cwnd_; }
  uint32_t ssthresh() const { return ssthresh_; }
  sim::Duration current_rto() const { return rto_; }
  sim::Duration smoothed_rtt() const { return srtt_; }
  uint32_t peer_window() const { return snd_wnd_; }
  size_t BufferedSendBytes() const;
  size_t UnreadBytes() const { return recv_queue_.size(); }
  bool InPersistMode() const { return persist_timer_ != sim::kInvalidTimerId; }
  std::string Describe() const;

  // --- Stack interface (not for applications) ---
  void StartActiveOpen();
  void StartPassiveOpen(const net::Packet& syn);
  void HandleSegment(const net::Packet& p);

 private:
  friend class TcpStack;

  // Segment processing.
  void HandleSynSent(const net::Packet& p);
  void ProcessAck(const net::Packet& p);
  void ProcessPayload(const net::Packet& p);
  void ProcessFin(const net::Packet& p);

  // Transmission machinery.
  void TrySend();
  void SendSegment(uint32_t seq, size_t len, uint8_t flags);
  void SendAck();
  void SendSyn(bool with_ack);
  void SendFinIfNeeded();
  void SendReset();
  // Retransmits the oldest outstanding segment (data or FIN). Returns true
  // if anything was sent.
  bool RetransmitAtSndUna();
  void EmitSegment(uint32_t seq, uint8_t flags, util::Bytes payload);

  // Congestion control.
  void OnNewAckReno(uint32_t acked_bytes);
  void EnterFastRetransmit();
  void OnRetransmitTimeout();

  // Timers.
  void ArmRetransmitTimer();
  void CancelRetransmitTimer();
  void ArmPersistTimer();
  void CancelPersistTimer();
  void OnPersistTimeout();
  void EnterTimeWait();
  void BecomeClosed(const std::string& reason);

  // RTT sampling (Karn's rule: never sample retransmitted data).
  void MaybeStartRttSample(uint32_t seq, size_t len);
  void MaybeCompleteRttSample(uint32_t ack);
  void UpdateRtt(sim::Duration sample);

  uint16_t AdvertisedWindow() const;
  uint32_t FlightSize() const { return static_cast<uint32_t>(SeqDiff(snd_nxt_, snd_una_)); }
  // Bytes of send-buffer data at or after snd_una_.
  size_t SendableBacklog() const;
  void DeliverInOrderData();

  TcpStack* stack_;
  net::Ipv4Address local_addr_;
  uint16_t local_port_;
  net::Ipv4Address remote_addr_;
  uint16_t remote_port_;
  TcpConfig config_;

  TcpState state_ = TcpState::kClosed;

  // --- Send state (RFC 793 names) ---
  uint32_t iss_;        // Initial send sequence.
  uint32_t snd_una_;    // Oldest unacknowledged.
  uint32_t snd_nxt_;    // Next sequence to send.
  uint32_t snd_wnd_ = 0;  // Peer-advertised window.
  // Bytes the application queued; front() corresponds to sequence snd_buf_seq_.
  std::deque<uint8_t> send_buffer_;
  uint32_t snd_buf_seq_ = 0;  // Sequence number of send_buffer_.front().
  bool fin_pending_ = false;  // App closed; FIN goes out after data.
  bool fin_sent_ = false;
  uint32_t fin_seq_ = 0;

  // --- Congestion control ---
  uint32_t cwnd_;
  uint32_t ssthresh_ = 65535;
  uint32_t dupack_count_ = 0;
  bool in_fast_recovery_ = false;
  uint32_t recover_ = 0;  // Highest seq outstanding when loss was detected.
  uint32_t bytes_acked_partial_ = 0;  // Congestion-avoidance accumulator.

  // --- RTT estimation ---
  bool rtt_sampling_ = false;
  uint32_t rtt_seq_ = 0;
  sim::TimePoint rtt_start_ = 0;
  sim::Duration srtt_ = 0;
  sim::Duration rttvar_ = 0;
  sim::Duration rto_;
  uint32_t backoff_shift_ = 0;
  uint32_t retries_ = 0;

  // --- Receive state ---
  uint32_t irs_ = 0;     // Initial receive sequence.
  uint32_t rcv_nxt_ = 0;
  std::map<uint32_t, util::Bytes> reassembly_;  // Out-of-order segments by seq.
  std::deque<uint8_t> recv_queue_;              // Unread in-order data.
  bool fin_received_ = false;
  uint32_t fin_rcv_seq_ = 0;

  // --- Timers ---
  sim::TimerId retransmit_timer_ = sim::kInvalidTimerId;
  sim::TimerId persist_timer_ = sim::kInvalidTimerId;
  sim::TimerId time_wait_timer_ = sim::kInvalidTimerId;
  uint32_t persist_backoff_shift_ = 0;

  TcpStats stats_;

  DataCallback on_data_;
  EventCallback on_connected_;
  EventCallback on_remote_close_;
  EventCallback on_closed_;
  EventCallback on_writable_;
  ErrorCallback on_error_;
};

}  // namespace comma::tcp

#endif  // COMMA_TCP_TCP_CONNECTION_H_
