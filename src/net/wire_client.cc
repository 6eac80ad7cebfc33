#include "net/wire_client.h"

#include <algorithm>

#include "common/macros.h"

namespace asap {
namespace net {

namespace {

// Encoded bytes buffered before an automatic flush.
constexpr size_t kSendBufferBytes = 256 * 1024;

Status ValidateClientOptions(WireClientOptions* options) {
  if (options->catalog == nullptr) {
    return Status::InvalidArgument(
        "a sender-side series catalog is required");
  }
  if (options->frame_records < 1) {
    return Status::InvalidArgument("frame_records must be >= 1");
  }
  // An over-bound frame would poison the receiving connection on its
  // first frame (see WireClientOptions::frame_records); clamp once
  // here so the encoder and Send()'s chunking agree by construction.
  options->frame_records =
      std::min(options->frame_records, kDefaultMaxTimedFrameRecords);
  return Status::OK();
}

}  // namespace

WireClient::WireClient(Socket sock, const WireClientOptions& options)
    : sock_(std::move(sock)),
      options_(options),
      encoder_(options.catalog, options.encoding, options.frame_records) {
  wire_buffer_.reserve(kSendBufferBytes);
}

Result<WireClient> WireClient::ConnectTcp(const std::string& host,
                                          uint16_t port,
                                          WireClientOptions options) {
  ASAP_RETURN_NOT_OK(ValidateClientOptions(&options));
  ASAP_ASSIGN_OR_RETURN(Socket sock, net::ConnectTcp(host, port));
  return WireClient(std::move(sock), options);
}

Result<WireClient> WireClient::ConnectUds(const std::string& path,
                                          WireClientOptions options) {
  ASAP_RETURN_NOT_OK(ValidateClientOptions(&options));
  ASAP_ASSIGN_OR_RETURN(Socket sock, net::ConnectUds(path));
  return WireClient(std::move(sock), options);
}

Status WireClient::Send(const stream::Record* records, size_t n) {
  // Encode frame-sized chunks with the flush check between them, so
  // one huge Send stays bounded at ~kSendBufferBytes of encode
  // buffer instead of materializing the whole batch.
  for (size_t i = 0; i < n; i += options_.frame_records) {
    const size_t chunk = std::min(options_.frame_records, n - i);
    encoder_.Encode(records + i, chunk, &wire_buffer_);
    records_sent_ += chunk;
    if (wire_buffer_.size() >= kSendBufferBytes) {
      ASAP_RETURN_NOT_OK(Flush());
    }
  }
  return Status::OK();
}

Status WireClient::SendRaw(const std::string& bytes) {
  ASAP_RETURN_NOT_OK(Flush());
  ASAP_RETURN_NOT_OK(SendAll(sock_.fd(), bytes.data(), bytes.size()));
  bytes_sent_ += bytes.size();
  return Status::OK();
}

Status WireClient::Flush() {
  if (wire_buffer_.empty()) {
    return Status::OK();
  }
  ASAP_RETURN_NOT_OK(SendAll(sock_.fd(), wire_buffer_.data(),
                             wire_buffer_.size()));
  bytes_sent_ += wire_buffer_.size();
  wire_buffer_.clear();
  return Status::OK();
}

}  // namespace net
}  // namespace asap
