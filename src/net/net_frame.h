// Multi-segment NetEvent framing for the coalescing/vectored net data path
// (DESIGN.md §5.5).
//
// Layouts, all starting with a plain NetEvent header (src/rpc/messages.h):
//
//  * legacy kData (segments == 0): header + one message's payload bytes;
//    the message's trace context is in the header. Bit-identical to the
//    pre-coalescing wire format.
//  * coalesced kData (segments == N >= 1): header + N NetSegment
//    descriptors + the N messages' payload bytes concatenated in order.
//    header.length covers descriptors + payloads; per-message contexts live
//    in the descriptors (the header context is zero).
//  * kBatch (segments == N): header + N [u32 length][encoded record]
//    entries, each entry itself a legacy or coalesced event record. One
//    ring push (one doorbell) delivers all of them.
#ifndef SOLROS_SRC_NET_NET_FRAME_H_
#define SOLROS_SRC_NET_NET_FRAME_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/logging.h"
#include "src/rpc/messages.h"

namespace solros {

// Per-message descriptor inside a coalesced kData event.
struct NetSegment {
  uint32_t length = 0;  // payload bytes of this message
  uint32_t reserved = 0;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

// One encoded event plus enough bookkeeping for plug-wait attribution.
// Deliberately not an aggregate — see NetStub::RecvItem for the GCC 12
// coroutine-parameter pitfall.
struct NetFrameView {
  NetFrameView() = default;
  NetFrameView(NetEvent h, std::span<const uint8_t> p) : header(h), body(p) {}
  NetEvent header;
  std::span<const uint8_t> body;  // bytes following the header
};

// Walks a record's events in place, without allocating (header already
// peeled by the caller): a kBatch record yields each sub-record, any other
// record yields itself once. Views alias `body`.
class NetFrameCursor {
 public:
  NetFrameCursor(const NetEvent& header, std::span<const uint8_t> body)
      : header_(header),
        body_(body),
        count_(header.kind == NetEventKind::kBatch ? header.segments : 1) {}

  bool Next(NetFrameView* out) {
    if (index_ == count_) {
      return false;
    }
    ++index_;
    if (header_.kind != NetEventKind::kBatch) {
      *out = NetFrameView(header_, body_);
      return true;
    }
    CHECK_LE(offset_ + sizeof(uint32_t), body_.size());
    uint32_t len = 0;
    std::memcpy(&len, body_.data() + offset_, sizeof(len));
    offset_ += sizeof(len);
    CHECK_LE(offset_ + len, body_.size());
    CHECK_GE(len, sizeof(NetEvent));
    std::span<const uint8_t> record = body_.subspan(offset_, len);
    *out = NetFrameView(DecodePod<NetEvent>(record),
                        record.subspan(sizeof(NetEvent)));
    offset_ += len;
    return true;
  }

 private:
  NetEvent header_;
  std::span<const uint8_t> body_;
  size_t count_;
  size_t index_ = 0;
  size_t offset_ = 0;
};

// One message sliced out of a (possibly coalesced) kData event body.
struct NetSegmentView {
  NetSegmentView() = default;
  NetSegmentView(std::span<const uint8_t> p, uint64_t trace, uint64_t parent)
      : payload(p), trace_id(trace), parent_span(parent) {}
  std::span<const uint8_t> payload;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

// Walks a kData event's messages in place, without allocating: exactly
// one for the legacy layout, `segments` for a coalesced one. Views alias
// `body`.
class NetSegmentCursor {
 public:
  NetSegmentCursor(const NetEvent& event, std::span<const uint8_t> body)
      : event_(event),
        body_(body),
        count_(event.segments == 0 ? 1 : event.segments),
        offset_(sizeof(NetSegment) * event.segments) {
    CHECK_LE(offset_, body.size());
  }

  size_t count() const { return count_; }

  bool Next(NetSegmentView* out) {
    if (index_ == count_) {
      return false;
    }
    if (event_.segments == 0) {
      *out = NetSegmentView(body_, event_.trace_id, event_.parent_span);
    } else {
      NetSegment seg;
      std::memcpy(&seg, body_.data() + index_ * sizeof(NetSegment),
                  sizeof(seg));
      CHECK_LE(offset_ + seg.length, body_.size());
      *out = NetSegmentView(body_.subspan(offset_, seg.length), seg.trace_id,
                            seg.parent_span);
      offset_ += seg.length;
    }
    ++index_;
    return true;
  }

 private:
  NetEvent event_;
  std::span<const uint8_t> body_;
  size_t count_;
  size_t offset_;
  size_t index_ = 0;
};

// Encodes a coalesced kData record for `sock`: descriptor table + payloads.
// `segments` and `bytes` are parallel (bytes holds the concatenation).
inline std::vector<uint8_t> EncodeCoalescedData(
    int64_t sock, std::span<const NetSegment> segments,
    std::span<const uint8_t> bytes) {
  NetEvent header;
  header.kind = NetEventKind::kData;
  header.sock = sock;
  header.segments = static_cast<uint16_t>(segments.size());
  header.length = static_cast<uint32_t>(sizeof(NetSegment) * segments.size() +
                                        bytes.size());
  std::vector<uint8_t> out(sizeof(NetEvent) + header.length);
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(NetEvent), segments.data(),
              sizeof(NetSegment) * segments.size());
  if (!bytes.empty()) {
    std::memcpy(out.data() + sizeof(NetEvent) +
                    sizeof(NetSegment) * segments.size(),
                bytes.data(), bytes.size());
  }
  return out;
}

// Wraps already-encoded event records into one kBatch record.
inline std::vector<uint8_t> EncodeBatch(
    std::span<const std::vector<uint8_t>> records) {
  size_t body_bytes = 0;
  for (const auto& r : records) {
    body_bytes += sizeof(uint32_t) + r.size();
  }
  NetEvent header;
  header.kind = NetEventKind::kBatch;
  header.segments = static_cast<uint16_t>(records.size());
  header.length = static_cast<uint32_t>(body_bytes);
  std::vector<uint8_t> out(sizeof(NetEvent) + body_bytes);
  std::memcpy(out.data(), &header, sizeof(header));
  size_t off = sizeof(NetEvent);
  for (const auto& r : records) {
    const uint32_t len = static_cast<uint32_t>(r.size());
    std::memcpy(out.data() + off, &len, sizeof(len));
    off += sizeof(len);
    std::memcpy(out.data() + off, r.data(), r.size());
    off += r.size();
  }
  return out;
}

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_FRAME_H_
