#include "src/filters/transform_filters.h"

#include "src/proxy/service_proxy.h"

#include "src/proxy/filter_state.h"
#include "src/util/strings.h"

namespace comma::filters {

bool TransformFilterBase::OnInsert(proxy::FilterContext& ctx, const proxy::StreamKey& key,
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
  data_key_ = key;
  return Configure(args, error);
}

proxy::FilterVerdict TransformFilterBase::Out(proxy::FilterContext& ctx,
                                              const proxy::StreamKey& key, net::Packet& packet) {
  if (!packet.has_tcp() || !(key == data_key_) || packet.payload().empty()) {
    return proxy::FilterVerdict::kPass;
  }
  // Leave connection management segments alone.
  if (packet.tcp().flags & (net::kTcpSyn | net::kTcpRst)) {
    return proxy::FilterVerdict::kPass;
  }
  auto* ttsf = dynamic_cast<TtsfFilter*>(ctx.FindFilterOnKey(key, "ttsf"));
  if (ttsf == nullptr) {
    return proxy::FilterVerdict::kPass;  // TTSF was removed; fail open.
  }
  auto replacement = Transform(packet);
  if (replacement.has_value()) {
    ttsf->SubmitTransform(packet, std::move(*replacement));
  }
  return proxy::FilterVerdict::kPass;
}

// --- tdrop ---

bool TdropFilter::Configure(const std::vector<std::string>& args, std::string* error) {
  if (!args.empty()) {
    uint32_t percent = 0;
    if (!util::ParseU32(args[0], &percent) || percent > 100) {
      if (error != nullptr) {
        *error = "tdrop: drop rate must be an integer percentage 0-100";
      }
      return false;
    }
    drop_probability_ = percent / 100.0;
  }
  if (args.size() > 1) {
    uint64_t seed = 0;
    if (util::ParseU64(args[1], &seed)) {
      rng_ = sim::Random(seed);
    }
  }
  return true;
}

std::optional<util::Bytes> TdropFilter::Transform(const net::Packet&) {
  if (rng_.Bernoulli(drop_probability_)) {
    ++dropped_;
    return util::Bytes{};  // Remove the data from the stream.
  }
  ++passed_;
  return std::nullopt;
}

std::string TdropFilter::Status() const {
  return util::Format("rate=%.0f%% dropped=%llu passed=%llu", drop_probability_ * 100,
                      static_cast<unsigned long long>(dropped_),
                      static_cast<unsigned long long>(passed_));
}

// --- tcompress ---

util::Bytes FrameCompressedBlob(const util::Bytes& blob) {
  util::Bytes framed;
  framed.reserve(blob.size() + 2);
  util::ByteWriter w(&framed);
  w.WriteU16(static_cast<uint16_t>(blob.size()));
  w.WriteBytes(blob);
  return framed;
}

std::optional<util::Bytes> DecodeCompressedFrames(const util::Bytes& payload,
                                                  uint64_t* blobs_decoded) {
  util::Bytes out;
  size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 2) {
      return std::nullopt;
    }
    const size_t len = static_cast<size_t>(payload[pos]) << 8 | payload[pos + 1];
    pos += 2;
    // Each blob decompresses where it lies, straight onto the output.
    if (payload.size() - pos < len || !util::DecompressAppend(payload.data() + pos, len, &out)) {
      return std::nullopt;
    }
    pos += len;
    if (blobs_decoded != nullptr) {
      ++*blobs_decoded;
    }
  }
  return out;
}

bool TcompressFilter::Configure(const std::vector<std::string>& args, std::string* error) {
  if (!args.empty()) {
    if (args[0] == "rle") {
      codec_ = util::Codec::kRle;
    } else if (args[0] == "lz") {
      codec_ = util::Codec::kLz;
    } else {
      if (error != nullptr) {
        *error = "tcompress: codec must be rle or lz";
      }
      return false;
    }
  }
  return true;
}

std::optional<util::Bytes> TcompressFilter::Transform(const net::Packet& packet) {
  const util::Bytes& payload = packet.payload();
  util::Bytes framed = FrameCompressedBlob(util::Compress(payload, codec_));
  bytes_in_ += payload.size();
  if (framed.size() >= payload.size()) {
    bytes_out_ += payload.size();
    return std::nullopt;  // Incompressible: leave the identity mapping.
  }
  bytes_out_ += framed.size();
  return framed;
}

std::string TcompressFilter::Status() const {
  const double ratio = bytes_in_ > 0 ? static_cast<double>(bytes_out_) / bytes_in_ : 1.0;
  return util::Format("codec=%s bytes %llu->%llu (%.2fx)",
                      codec_ == util::Codec::kLz ? "lz" : "rle",
                      static_cast<unsigned long long>(bytes_in_),
                      static_cast<unsigned long long>(bytes_out_), ratio);
}

// --- tdecompress ---

bool TdecompressFilter::Configure(const std::vector<std::string>&, std::string*) { return true; }

std::optional<util::Bytes> TdecompressFilter::Transform(const net::Packet& packet) {
  auto plain = DecodeCompressedFrames(packet.payload(), &blobs_decoded_);
  if (!plain.has_value()) {
    // Not a compressed payload (e.g. the compressor skipped it as
    // incompressible): leave it untouched.
    ++decode_failures_;
    return std::nullopt;
  }
  return plain;
}

std::string TdecompressFilter::Status() const {
  return util::Format("blobs=%llu failures=%llu",
                      static_cast<unsigned long long>(blobs_decoded_),
                      static_cast<unsigned long long>(decode_failures_));
}

// --- Failover state contracts ---
//
// Configuration (drop percentage, codec) is NOT in the blobs: it rides in
// the checkpointed service args and is re-applied by OnInsert at the
// standby. The blobs carry only what live traffic accumulated.

namespace {
constexpr char kTdropStateMagic[] = "TDRP";
constexpr char kTcompressStateMagic[] = "TCMP";
constexpr char kTdecompressStateMagic[] = "TDEC";
constexpr uint8_t kTransformStateVersion = 1;

bool StateVersionOk(util::ByteReader* r, const char* magic, std::string* error,
                    const char* who) {
  std::optional<uint8_t> version = proxy::ReadStateHeader(r, magic);
  if (!version.has_value() || *version != kTransformStateVersion) {
    if (error != nullptr) {
      *error = std::string(who) + " import: bad magic or version";
    }
    return false;
  }
  return true;
}
}  // namespace

proxy::FilterStateKind TdropFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool TdropFilter::ExportState(util::Bytes* out) const {
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kTdropStateMagic, kTransformStateVersion);
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) {
    w.WriteU64(word);
  }
  w.WriteU64(dropped_);
  w.WriteU64(passed_);
  return true;
}

bool TdropFilter::ImportState(proxy::FilterContext&, const util::Bytes& in, std::string* error) {
  util::ByteReader r(in);
  if (!StateVersionOk(&r, kTdropStateMagic, error, "tdrop")) {
    return false;
  }
  uint64_t rng_state[4];
  for (uint64_t& word : rng_state) {
    word = r.ReadU64();
  }
  const uint64_t dropped = r.ReadU64();
  const uint64_t passed = r.ReadU64();
  if (r.failed()) {
    if (error != nullptr) {
      *error = "tdrop import: truncated blob";
    }
    return false;
  }
  rng_.RestoreState(rng_state);
  dropped_ = dropped;
  passed_ = passed;
  return true;
}

proxy::FilterStateKind TcompressFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool TcompressFilter::ExportState(util::Bytes* out) const {
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kTcompressStateMagic, kTransformStateVersion);
  w.WriteU64(bytes_in_);
  w.WriteU64(bytes_out_);
  return true;
}

bool TcompressFilter::ImportState(proxy::FilterContext&, const util::Bytes& in,
                                  std::string* error) {
  util::ByteReader r(in);
  if (!StateVersionOk(&r, kTcompressStateMagic, error, "tcompress")) {
    return false;
  }
  const uint64_t bytes_in = r.ReadU64();
  const uint64_t bytes_out = r.ReadU64();
  if (r.failed()) {
    if (error != nullptr) {
      *error = "tcompress import: truncated blob";
    }
    return false;
  }
  bytes_in_ = bytes_in;
  bytes_out_ = bytes_out;
  return true;
}

proxy::FilterStateKind TdecompressFilter::state_kind() const {
  return proxy::FilterStateKind::kCheckpointed;
}

bool TdecompressFilter::ExportState(util::Bytes* out) const {
  util::ByteWriter w(out);
  proxy::WriteStateHeader(&w, kTdecompressStateMagic, kTransformStateVersion);
  w.WriteU64(blobs_decoded_);
  w.WriteU64(decode_failures_);
  return true;
}

bool TdecompressFilter::ImportState(proxy::FilterContext&, const util::Bytes& in,
                                    std::string* error) {
  util::ByteReader r(in);
  if (!StateVersionOk(&r, kTdecompressStateMagic, error, "tdecompress")) {
    return false;
  }
  const uint64_t blobs_decoded = r.ReadU64();
  const uint64_t decode_failures = r.ReadU64();
  if (r.failed()) {
    if (error != nullptr) {
      *error = "tdecompress import: truncated blob";
    }
    return false;
  }
  blobs_decoded_ = blobs_decoded;
  decode_failures_ = decode_failures;
  return true;
}

}  // namespace comma::filters
