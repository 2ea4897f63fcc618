#include "src/apps/bulk.h"

#include <cstring>

namespace comma::apps {

util::Bytes PatternPayload(size_t n) {
  util::Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 131 + (i >> 7) + (i >> 13));
  }
  return out;
}

util::Bytes TextPayload(size_t n) {
  static const char kPhrase[] =
      "Wireless networks are characterized by the generally low quality of service that they "
      "provide. In the face of user mobility between heterogeneous networks, distributed "
      "applications designed for wired networks have difficulty operating. ";
  util::Bytes out;
  out.reserve(n + sizeof(kPhrase));
  while (out.size() < n) {
    out.insert(out.end(), kPhrase, kPhrase + sizeof(kPhrase) - 1);
  }
  out.resize(n);
  return out;
}

BulkSink::BulkSink(core::Host* host, uint16_t port, const tcp::TcpConfig& config) : host_(host) {
  host_->tcp().Listen(
      port,
      [this](tcp::TcpConnection* conn) {
        conn_ = conn;
        conn->set_on_data([this](const util::Bytes& data) {
          if (received_.empty()) {
            first_byte_at_ = host_->simulator()->Now();
          }
          last_byte_at_ = host_->simulator()->Now();
          received_.insert(received_.end(), data.begin(), data.end());
        });
        conn->set_on_remote_close([this, conn] {
          conn->Close();
          closed_ = true;
        });
      },
      config);
}

BulkSender::BulkSender(core::Host* host, net::Ipv4Address server, uint16_t port,
                       util::Bytes payload, const tcp::TcpConfig& config)
    : host_(host),
      payload_(std::make_shared<util::Bytes>(std::move(payload))),
      payload_size_(payload_->size()),
      started_at_(host->simulator()->Now()) {
  conn_ = host_->tcp().Connect(server, port, config);
  conn_->set_on_connected([this] { Pump(); });
  conn_->set_on_writable([this] { Pump(); });
  conn_->set_on_closed([this] {
    if (!finished_) {
      finished_ = true;
      finished_at_ = host_->simulator()->Now();
      if (on_finished_) {
        on_finished_();
      }
    }
  });
}

void BulkSender::Pump() {
  // Advance an offset instead of erasing the front: erase memmoves the
  // whole remainder on every pump, turning an N-byte transfer into O(N^2)
  // copying on multi-megabyte payloads.
  while (offset_ < payload_->size()) {
    const size_t n = conn_->Send(payload_->data() + offset_, payload_->size() - offset_);
    if (n == 0) {
      return;
    }
    offset_ += n;
  }
  conn_->Close();
}

double BulkSender::GoodputBps() const {
  if (!finished_ || finished_at_ <= started_at_) {
    return 0.0;
  }
  return static_cast<double>(payload_size_) * 8.0 /
         sim::DurationToSeconds(finished_at_ - started_at_);
}

}  // namespace comma::apps
