// Bulk-transfer workload (FTP-style), the canonical TCP workload for the
// protocol experiments (E4, E5, E8...).
#ifndef COMMA_APPS_BULK_H_
#define COMMA_APPS_BULK_H_

#include <functional>
#include <memory>

#include "src/core/host.h"

namespace comma::apps {

// Payload generators.
util::Bytes PatternPayload(size_t n);   // High-entropy, incompressible.
util::Bytes TextPayload(size_t n);      // Repetitive text, compresses well.

// Accepts connections on a port and accumulates received bytes.
class BulkSink {
 public:
  BulkSink(core::Host* host, uint16_t port, const tcp::TcpConfig& config = {});

  const util::Bytes& received() const { return received_; }
  size_t bytes_received() const { return received_.size(); }
  bool closed() const { return closed_; }
  tcp::TcpConnection* connection() const { return conn_; }
  sim::TimePoint first_byte_at() const { return first_byte_at_; }
  sim::TimePoint last_byte_at() const { return last_byte_at_; }

 private:
  core::Host* host_;
  tcp::TcpConnection* conn_ = nullptr;
  util::Bytes received_;
  bool closed_ = false;
  sim::TimePoint first_byte_at_ = 0;
  sim::TimePoint last_byte_at_ = 0;
};

// Connects and pushes `payload` as fast as the send buffer allows, then
// closes. Tracks completion time.
class BulkSender {
 public:
  BulkSender(core::Host* host, net::Ipv4Address server, uint16_t port, util::Bytes payload,
             const tcp::TcpConfig& config = {});

  tcp::TcpConnection* connection() const { return conn_; }
  bool finished() const { return finished_; }
  sim::TimePoint started_at() const { return started_at_; }
  sim::TimePoint finished_at() const { return finished_at_; }
  // Goodput over the connection lifetime, bits/second (0 until finished).
  double GoodputBps() const;
  size_t payload_size() const { return payload_size_; }

  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

 private:
  void Pump();

  core::Host* host_;
  tcp::TcpConnection* conn_;
  std::shared_ptr<util::Bytes> payload_;
  size_t offset_ = 0;  // Bytes of payload_ already accepted by the stack.
  size_t payload_size_;
  bool finished_ = false;
  sim::TimePoint started_at_;
  sim::TimePoint finished_at_ = 0;
  std::function<void()> on_finished_;
};

}  // namespace comma::apps

#endif  // COMMA_APPS_BULK_H_
