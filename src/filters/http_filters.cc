#include "src/filters/http_filters.h"

#include <algorithm>

#include "src/filters/ttsf_filter.h"
#include "src/proxy/filter_state.h"
#include "src/proxy/service_proxy.h"
#include "src/util/compress.h"
#include "src/util/strings.h"

namespace comma::filters {

namespace {

// Heads larger than this are not HTTP traffic we understand; fail open
// rather than buffer without bound.
constexpr size_t kMaxHeadBytes = 8 * 1024;

constexpr char kHrewriteStateMagic[] = "HRWR";
constexpr char kHtypeStateMagic[] = "HTYP";
constexpr uint8_t kHttpStateVersion = 1;

bool IsHopByHopHeader(const std::string& name) {
  static const char* kHopByHop[] = {"Connection",       "Keep-Alive", "Proxy-Connection",
                                    "TE",               "Upgrade",    "Trailer"};
  for (const char* h : kHopByHop) {
    if (reassembly::HeaderNameEquals(name, h)) {
      return true;
    }
  }
  return false;
}

// Splits a complete header block (including the trailing blank line) into
// its start line and parsed headers. Returns false on malformed structure.
bool SplitHead(const std::string& head, std::string* start_line,
               std::vector<reassembly::HttpHeader>* headers) {
  size_t pos = 0;
  bool first = true;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) {
      return false;
    }
    std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (first) {
      if (line.empty()) {
        return false;
      }
      *start_line = std::move(line);
      first = false;
      continue;
    }
    if (line.empty()) {
      return true;  // Blank line: end of head.
    }
    reassembly::HttpHeader h;
    if (!reassembly::ParseHeaderLine(line, &h)) {
      return false;
    }
    headers->push_back(std::move(h));
  }
  return false;
}

// Parses a Content-Length value; returns false on a non-numeric or absurd
// length.
bool ParseContentLength(const std::string& value, size_t* out) {
  if (value.empty()) {
    return false;
  }
  size_t n = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return false;
    }
    n = n * 10 + static_cast<size_t>(c - '0');
    if (n > (1u << 30)) {
      return false;
    }
  }
  *out = n;
  return true;
}

void AppendString(util::Bytes* out, const std::string& s) {
  out->insert(out->end(), util::AsBytePtr(s.data()), util::AsBytePtr(s.data()) + s.size());
}

bool StateVersionOk(util::ByteReader* r, const char* magic, std::string* error, const char* who) {
  std::optional<uint8_t> version = proxy::ReadStateHeader(r, magic);
  if (!version.has_value() || *version != kHttpStateVersion) {
    if (error != nullptr) {
      *error = std::string(who) + " import: bad magic or version";
    }
    return false;
  }
  return true;
}

}  // namespace

// --- HttpStreamFilterBase: the reassembler/TTSF protocol ---

bool HttpStreamFilterBase::OnInsert(proxy::FilterContext& ctx, const proxy::StreamKey& key,
                                    const std::vector<std::string>& args, std::string* error) {
  if (key.IsWildcard()) {
    if (error != nullptr) {
      *error = name() + " requires a concrete stream key";
    }
    return false;
  }
  if (ctx.FindFilterOnKey(key, "ttsf") == nullptr) {
    if (error != nullptr) {
      *error = name() + " requires a ttsf filter on the stream (add ttsf first)";
    }
    return false;
  }
  if (WatchesResponses()) {
    // The service is requested on the request-direction key; this filter
    // rewrites the responses flowing the other way.
    data_key_ = key.Reversed();
    ctx.proxy().Attach(shared_from_this(), data_key_);
  } else {
    data_key_ = key;
  }
  obs_fail_open_ = ctx.metrics()->GetCounter("http.fail_open");
  obs_bytes_in_ = ctx.metrics()->GetCounter("http.bytes_in");
  obs_bytes_out_ = ctx.metrics()->GetCounter("http.bytes_out");
  return Configure(ctx, args, error);
}

void HttpStreamFilterBase::LatchFailOpen(proxy::FilterContext& ctx, const char* reason) {
  if (fail_open_) {
    return;
  }
  fail_open_ = true;
  obs_fail_open_->Inc();
  ctx.tracer().Logf(sim::TraceLevel::kWarn, name().c_str(), "fail-open %s: %s",
                    data_key_.ToString().c_str(), reason);
}

proxy::FilterVerdict HttpStreamFilterBase::Out(proxy::FilterContext& ctx,
                                               const proxy::StreamKey& key, net::Packet& packet) {
  if (!packet.has_tcp() || !(key == data_key_)) {
    return proxy::FilterVerdict::kPass;
  }
  auto& h = packet.tcp();
  if (h.flags & net::kTcpSyn) {
    // Fresh connection on the key: restart everything (the TTSF re-arms on
    // SYN the same way).
    reassembler_ = reassembly::StreamReassembler();
    reassembler_.OnSyn(h.seq);
    fail_open_ = false;
    ResetScanner();
    return proxy::FilterVerdict::kPass;
  }
  if (h.flags & net::kTcpRst) {
    LatchFailOpen(ctx, "stream reset");
    return proxy::FilterVerdict::kPass;
  }
  if (fail_open_) {
    return proxy::FilterVerdict::kPass;
  }
  const bool fin = (h.flags & net::kTcpFin) != 0;
  const util::Bytes& payload = packet.payload();
  if (payload.empty() && !fin) {
    return proxy::FilterVerdict::kPass;  // Pure ACK.
  }
  auto* ttsf = dynamic_cast<TtsfFilter*>(ctx.FindFilterOnKey(key, "ttsf"));
  if (ttsf == nullptr || ttsf->bypassed(key)) {
    LatchFailOpen(ctx, "ttsf missing or bypassed");
    return proxy::FilterVerdict::kPass;
  }
  // Below-frontier data is a retransmission (or a frontier-straddling one):
  // the TTSF replays its recorded transforms for it — and discards any
  // submission — so it must not reach the reassembler, whose clipped
  // delivery would double-consume the suffix. A straddle is under-delivered
  // by the replay; the sender's retransmission from the frontier repairs it.
  if (reassembler_.initialized() && !payload.empty() &&
      tcp::SeqLt(h.seq, reassembler_.frontier())) {
    return proxy::FilterVerdict::kPass;
  }
  const uint64_t oow_before = reassembler_.stats().out_of_window;
  util::Bytes delivered;
  reassembler_.OnSegment(h.seq, payload, fin, &delivered);
  obs_bytes_in_->Inc(payload.size());
  if (reassembler_.failed()) {
    LatchFailOpen(ctx, "reassembly buffer overflow");
    return proxy::FilterVerdict::kPass;
  }
  if (!delivered.empty()) {
    bool failed = false;
    util::Bytes out = ScanBytes(delivered, &failed);
    if (!failed && fin && reassembler_.finished()) {
      util::Bytes tail = FlushScanner();
      out.insert(out.end(), tail.begin(), tail.end());
    }
    obs_bytes_out_->Inc(out.size());
    ttsf->SubmitTransform(packet, std::move(out));
    if (failed) {
      LatchFailOpen(ctx, "unparseable http content");
    }
    return proxy::FilterVerdict::kPass;
  }
  if (payload.empty()) {
    return proxy::FilterVerdict::kPass;  // Bare FIN.
  }
  if (reassembler_.stats().out_of_window != oow_before) {
    // The reassembler refused to buffer it; we can neither consume nor
    // safely drop it, so stop interpreting the stream.
    LatchFailOpen(ctx, "segment beyond buffering window");
    return proxy::FilterVerdict::kPass;
  }
  // Beyond-frontier segment, now buffered in the reassembler. Submit the
  // empty transform: the TTSF holds the packet and releases it as a drop
  // once the gap fills — the gap-filler's transform carries these bytes.
  ttsf->SubmitDrop(packet);
  return proxy::FilterVerdict::kPass;
}

// --- hrewrite ---

bool HrewriteFilter::Configure(proxy::FilterContext& ctx, const std::vector<std::string>&,
                               std::string*) {
  client_addr_ = data_key_.src.ToString();
  obs_requests_ = ctx.metrics()->GetCounter("http.requests_rewritten");
  obs_stripped_ = ctx.metrics()->GetCounter("http.hop_headers_stripped");
  return true;
}

void HrewriteFilter::ResetScanner() {
  head_buf_.clear();
  body_remaining_ = 0;
  in_body_ = false;
}

util::Bytes HrewriteFilter::FlushScanner() {
  util::Bytes out = util::ToBytes(head_buf_);
  head_buf_.clear();
  return out;
}

util::Bytes HrewriteFilter::RewriteHead(const std::string& head, bool* failed) {
  std::string start_line;
  std::vector<reassembly::HttpHeader> headers;
  if (!SplitHead(head, &start_line, &headers)) {
    *failed = true;
    return {};
  }
  // Only message framings we can follow: no body, or Content-Length.
  body_remaining_ = 0;
  std::string rewritten = start_line + "\r\n";
  for (const auto& hdr : headers) {
    if (reassembly::HeaderNameEquals(hdr.name, "Transfer-Encoding")) {
      *failed = true;  // Chunked requests are not interpreted.
      return {};
    }
    if (reassembly::HeaderNameEquals(hdr.name, "Content-Length")) {
      if (!ParseContentLength(hdr.value, &body_remaining_)) {
        *failed = true;
        return {};
      }
    }
    if (IsHopByHopHeader(hdr.name)) {
      ++headers_stripped_;
      obs_stripped_->Inc();
      continue;
    }
    rewritten += hdr.name + ": " + hdr.value + "\r\n";
  }
  rewritten += "Via: 1.1 comma-proxy\r\n";
  rewritten += "X-Forwarded-For: " + client_addr_ + "\r\n";
  rewritten += "\r\n";
  in_body_ = body_remaining_ > 0;
  ++requests_rewritten_;
  obs_requests_->Inc();
  return util::ToBytes(rewritten);
}

util::Bytes HrewriteFilter::ScanBytes(const util::Bytes& data, bool* failed) {
  util::Bytes out;
  size_t i = 0;
  while (i < data.size()) {
    if (in_body_) {
      const size_t n = std::min(data.size() - i, body_remaining_);
      out.insert(out.end(), data.begin() + static_cast<long>(i),
                 data.begin() + static_cast<long>(i + n));
      body_remaining_ -= n;
      i += n;
      if (body_remaining_ == 0) {
        in_body_ = false;  // Next message (pipelining).
      }
      continue;
    }
    head_buf_.push_back(static_cast<char>(data[i]));
    ++i;
    const bool head_done =
        head_buf_.size() >= 4 && head_buf_.compare(head_buf_.size() - 4, 4, "\r\n\r\n") == 0;
    if (!head_done) {
      if (head_buf_.size() > kMaxHeadBytes) {
        *failed = true;
      }
      continue;
    }
    util::Bytes head_out = RewriteHead(head_buf_, failed);
    if (*failed) {
      break;
    }
    head_buf_.clear();
    out.insert(out.end(), head_out.begin(), head_out.end());
  }
  if (*failed) {
    // Nothing already consumed may be lost at the fail-open boundary: emit
    // the buffered head and the rest of this delivery raw.
    AppendString(&out, head_buf_);
    head_buf_.clear();
    out.insert(out.end(), data.begin() + static_cast<long>(i), data.end());
  }
  return out;
}

std::string HrewriteFilter::Status() const {
  return util::Format("rewritten=%llu stripped=%llu%s",
                      static_cast<unsigned long long>(requests_rewritten_),
                      static_cast<unsigned long long>(headers_stripped_),
                      fail_open_ ? " FAIL-OPEN" : "");
}

proxy::FilterStateKind HrewriteFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool HrewriteFilter::ExportState(util::Bytes* out) const {
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kHrewriteStateMagic, kHttpStateVersion);
  w.WriteU8(reassembler_.initialized() ? 1 : 0);
  w.WriteU32(reassembler_.frontier());
  w.WriteU8(fail_open_ ? 1 : 0);
  w.WriteU8(in_body_ ? 1 : 0);
  w.WriteU64(body_remaining_);
  w.WriteString(head_buf_);
  w.WriteU64(requests_rewritten_);
  w.WriteU64(headers_stripped_);
  return true;
}

bool HrewriteFilter::ImportState(proxy::FilterContext&, const util::Bytes& in,
                                 std::string* error) {
  util::ByteReader r(in);
  if (!StateVersionOk(&r, kHrewriteStateMagic, error, "hrewrite")) {
    return false;
  }
  const bool has_stream = r.ReadU8() != 0;
  const uint32_t frontier = r.ReadU32();
  const bool fail_open = r.ReadU8() != 0;
  const bool in_body = r.ReadU8() != 0;
  const uint64_t body_remaining = r.ReadU64();
  const std::string head_buf = r.ReadString();
  const uint64_t rewritten = r.ReadU64();
  const uint64_t stripped = r.ReadU64();
  if (r.failed()) {
    if (error != nullptr) {
      *error = "hrewrite import: truncated blob";
    }
    return false;
  }
  if (has_stream) {
    reassembler_.RestoreFrontier(frontier);
  }
  fail_open_ = fail_open;
  in_body_ = in_body;
  body_remaining_ = static_cast<size_t>(body_remaining);
  head_buf_ = head_buf;
  requests_rewritten_ = rewritten;
  headers_stripped_ = stripped;
  return true;
}

// --- htype ---

bool HtypeFilter::Configure(proxy::FilterContext& ctx, const std::vector<std::string>& args,
                            std::string* error) {
  if (!args.empty()) {
    uint32_t layer = 0;
    if (!util::ParseU32(args[0], &layer) || layer > 8) {
      if (error != nullptr) {
        *error = "htype: optional argument is the max media layer to keep (0-8)";
      }
      return false;
    }
    max_layer_ = static_cast<int>(layer);
  }
  obs_transcoded_ = ctx.metrics()->GetCounter("http.responses_transcoded");
  obs_frames_dropped_ = ctx.metrics()->GetCounter("http.media_frames_dropped");
  return true;
}

void HtypeFilter::ResetScanner() {
  head_buf_.clear();
  mode_ = BodyMode::kNone;
  body_remaining_ = 0;
  carry_.clear();
}

util::Bytes HtypeFilter::FlushScanner() {
  util::Bytes out = util::ToBytes(head_buf_);
  head_buf_.clear();
  out.insert(out.end(), carry_.begin(), carry_.end());
  carry_.clear();
  return out;
}

void HtypeFilter::EmitChunk(const util::Bytes& piece, util::Bytes* out) {
  if (piece.empty()) {
    return;
  }
  AppendString(out, util::Format("%zx\r\n", piece.size()));
  out->insert(out->end(), piece.begin(), piece.end());
  AppendString(out, "\r\n");
}

util::Bytes HtypeFilter::RewriteHead(const std::string& head, bool* failed) {
  std::string start_line;
  std::vector<reassembly::HttpHeader> headers;
  if (!SplitHead(head, &start_line, &headers)) {
    *failed = true;
    return {};
  }
  size_t content_length = 0;
  bool has_length = false;
  std::string content_type;
  for (const auto& hdr : headers) {
    if (reassembly::HeaderNameEquals(hdr.name, "Transfer-Encoding")) {
      *failed = true;  // Already chunked upstream: not interpreted.
      return {};
    }
    if (reassembly::HeaderNameEquals(hdr.name, "Content-Length")) {
      if (!ParseContentLength(hdr.value, &content_length)) {
        *failed = true;
        return {};
      }
      has_length = true;
    }
    if (reassembly::HeaderNameEquals(hdr.name, "Content-Type")) {
      content_type = hdr.value;
    }
  }
  if (!has_length || content_length == 0) {
    // Bodiless (or unknown-length, which we refuse to guess at): pass the
    // head unchanged and look for the next message.
    if (!has_length) {
      *failed = true;
      return {};
    }
    mode_ = BodyMode::kNone;
    return util::ToBytes(head);
  }
  body_remaining_ = content_length;
  const bool is_text = reassembly::ValueHasPrefix(content_type, "text/");
  const bool is_media = reassembly::ValueHasPrefix(content_type, kMediaContentType);
  if (!is_text && !is_media) {
    mode_ = BodyMode::kIdentity;
    return util::ToBytes(head);
  }
  // Transcoded body: final length is unknown at head time, so re-frame as
  // chunked; Content-Length goes, X-Comma-Encoding marks compressed-blob
  // bodies for the receiver (media frames are self-describing).
  mode_ = is_text ? BodyMode::kText : BodyMode::kMedia;
  carry_.clear();
  std::string rewritten = start_line + "\r\n";
  for (const auto& hdr : headers) {
    if (reassembly::HeaderNameEquals(hdr.name, "Content-Length")) {
      continue;
    }
    rewritten += hdr.name + ": " + hdr.value + "\r\n";
  }
  rewritten += "Transfer-Encoding: chunked\r\n";
  if (is_text) {
    rewritten += std::string(kEncodingHeader) + ": " + kEncodingFrames + "\r\n";
  }
  rewritten += "\r\n";
  ++responses_transcoded_;
  obs_transcoded_->Inc();
  return util::ToBytes(rewritten);
}

void HtypeFilter::ConsumeBody(const util::Bytes& data, size_t* idx, util::Bytes* out) {
  const size_t n = std::min(data.size() - *idx, body_remaining_);
  const auto begin = data.begin() + static_cast<long>(*idx);
  const auto end = begin + static_cast<long>(n);
  switch (mode_) {
    case BodyMode::kIdentity: {
      out->insert(out->end(), begin, end);
      break;
    }
    case BodyMode::kText: {
      // One chunk holding one FrameCompressedBlob frame, compressed from
      // where the piece lies and written straight into the output.
      const util::Bytes blob = util::Compress(data.data() + *idx, n, util::Codec::kLz);
      AppendString(out, util::Format("%zx\r\n", blob.size() + 2));
      util::ByteWriter w(out);
      w.WriteU16(static_cast<uint16_t>(blob.size()));
      w.WriteBytes(blob);
      AppendString(out, "\r\n");
      break;
    }
    case BodyMode::kMedia: {
      carry_.insert(carry_.end(), begin, end);
      util::Bytes kept;
      size_t pos = 0;
      // Frames are [layer, type, u16 len BE, payload].
      while (carry_.size() - pos >= 4) {
        const uint8_t layer = carry_[pos];
        const size_t frame_len =
            4 + ((static_cast<size_t>(carry_[pos + 2]) << 8) | carry_[pos + 3]);
        if (carry_.size() - pos < frame_len) {
          break;
        }
        if (layer <= static_cast<uint8_t>(max_layer_)) {
          kept.insert(kept.end(), carry_.begin() + static_cast<long>(pos),
                      carry_.begin() + static_cast<long>(pos + frame_len));
        } else {
          ++frames_dropped_;
          obs_frames_dropped_->Inc();
        }
        pos += frame_len;
      }
      carry_.erase(carry_.begin(), carry_.begin() + static_cast<long>(pos));
      EmitChunk(kept, out);
      break;
    }
    case BodyMode::kNone:
      break;
  }
  body_remaining_ -= n;
  *idx += n;
  if (body_remaining_ == 0) {
    if (mode_ == BodyMode::kMedia && !carry_.empty()) {
      // Misaligned trailing bytes: deliver them raw rather than lose them.
      EmitChunk(carry_, out);
      carry_.clear();
    }
    if (mode_ != BodyMode::kIdentity) {
      AppendString(out, "0\r\n\r\n");  // Chunked terminator.
    }
    mode_ = BodyMode::kNone;
  }
}

util::Bytes HtypeFilter::ScanBytes(const util::Bytes& data, bool* failed) {
  util::Bytes out;
  size_t i = 0;
  while (i < data.size()) {
    if (mode_ != BodyMode::kNone) {
      ConsumeBody(data, &i, &out);
      continue;
    }
    head_buf_.push_back(static_cast<char>(data[i]));
    ++i;
    const bool head_done =
        head_buf_.size() >= 4 && head_buf_.compare(head_buf_.size() - 4, 4, "\r\n\r\n") == 0;
    if (!head_done) {
      if (head_buf_.size() > kMaxHeadBytes) {
        *failed = true;
      }
      continue;
    }
    util::Bytes head_out = RewriteHead(head_buf_, failed);
    if (*failed) {
      break;
    }
    head_buf_.clear();
    out.insert(out.end(), head_out.begin(), head_out.end());
  }
  if (*failed) {
    AppendString(&out, head_buf_);
    head_buf_.clear();
    out.insert(out.end(), carry_.begin(), carry_.end());
    carry_.clear();
    out.insert(out.end(), data.begin() + static_cast<long>(i), data.end());
  }
  return out;
}

std::string HtypeFilter::Status() const {
  return util::Format("max_layer=%d transcoded=%llu frames_dropped=%llu%s", max_layer_,
                      static_cast<unsigned long long>(responses_transcoded_),
                      static_cast<unsigned long long>(frames_dropped_),
                      fail_open_ ? " FAIL-OPEN" : "");
}

proxy::FilterStateKind HtypeFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool HtypeFilter::ExportState(util::Bytes* out) const {
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kHtypeStateMagic, kHttpStateVersion);
  w.WriteU8(reassembler_.initialized() ? 1 : 0);
  w.WriteU32(reassembler_.frontier());
  w.WriteU8(fail_open_ ? 1 : 0);
  w.WriteU8(static_cast<uint8_t>(mode_));
  w.WriteU8(static_cast<uint8_t>(max_layer_));
  w.WriteU64(body_remaining_);
  w.WriteString(head_buf_);
  w.WriteString(util::ToString(carry_));
  w.WriteU64(responses_transcoded_);
  w.WriteU64(frames_dropped_);
  return true;
}

bool HtypeFilter::ImportState(proxy::FilterContext&, const util::Bytes& in, std::string* error) {
  util::ByteReader r(in);
  if (!StateVersionOk(&r, kHtypeStateMagic, error, "htype")) {
    return false;
  }
  const bool has_stream = r.ReadU8() != 0;
  const uint32_t frontier = r.ReadU32();
  const bool fail_open = r.ReadU8() != 0;
  const uint8_t mode = r.ReadU8();
  const uint8_t max_layer = r.ReadU8();
  const uint64_t body_remaining = r.ReadU64();
  const std::string head_buf = r.ReadString();
  const std::string carry = r.ReadString();
  const uint64_t transcoded = r.ReadU64();
  const uint64_t dropped = r.ReadU64();
  if (r.failed() || mode > static_cast<uint8_t>(BodyMode::kMedia)) {
    if (error != nullptr) {
      *error = "htype import: truncated or malformed blob";
    }
    return false;
  }
  if (has_stream) {
    reassembler_.RestoreFrontier(frontier);
  }
  fail_open_ = fail_open;
  mode_ = static_cast<BodyMode>(mode);
  max_layer_ = max_layer;
  body_remaining_ = static_cast<size_t>(body_remaining);
  head_buf_ = head_buf;
  carry_ = util::ToBytes(carry);
  responses_transcoded_ = transcoded;
  frames_dropped_ = dropped;
  return true;
}

}  // namespace comma::filters
