// Refcounted immutable message payload — the zero-copy transport currency.
//
// A Payload is a shared, immutable byte buffer (plus an offset/length
// window into it), so a multicast serializes a wire message ONCE and every
// recipient, link shaper and in-flight network event shares the same
// allocation. Slices (nested messages exposed by Reader::bytes_view) keep
// the whole buffer alive instead of copying.
//
// The SHA-256 digest of any window into the buffer is memoized on the
// buffer itself: repeated digesting of the same content (per-recipient
// request digests, certificate re-checks, checkpoint re-hashing) costs one
// computation. Memoization is transparent — digests are bit-identical to a
// fresh Sha256::hash over the same bytes — so the *modeled* CPU cost
// (SimNode::charge_hash) is still charged per protocol-level hash while the
// wall-clock cost is paid once. Immutability makes invalidation trivial:
// bytes never change under a memo entry; "modifying" a payload means
// building a new one, which starts with an empty memo.
//
// A buffer built as an authenticated frame also carries a SealStamp naming
// who sealed it and for whom. The stamp is fixed when the buffer is built
// and, like the bytes, never changes; a copy of the bytes is a new buffer
// without one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace spider {

/// Process-wide count of actual SHA-256 computations performed by Payload
/// digest memoization (the sum of every buffer's digest_computations(),
/// including buffers already freed). Exported to the metrics registry via
/// World::refresh_platform_metrics(); the per-buffer counter below stays
/// the fine-grained test hook.
std::uint64_t payload_digest_computations_total();

/// Who sealed a frame buffer [u32 tag][body][auth] and for whom (see
/// SimNode::seal_mac / seal_signed). `sealed_for` is the MAC's receiver, or
/// 0 for a signature: World never allocates NodeId 0, so it cannot name a
/// receiver. `prefix_len` is the length of the [tag][body] the auth covers.
/// A default stamp (sealer 0) marks a buffer nobody sealed.
struct SealStamp {
  NodeId sealer = 0;
  NodeId sealed_for = 0;
  std::uint32_t prefix_len = 0;
};

class Payload {
 public:
  /// Empty payload (no buffer).
  Payload() = default;
  /// Takes ownership of `b` (no copy).
  explicit Payload(Bytes b) : buf_(std::make_shared<Buf>(std::move(b))) {
    len_ = buf_->data.size();
  }
  /// Copies a view into a fresh buffer.
  explicit Payload(BytesView v) : Payload(Bytes(v.begin(), v.end())) {}
  /// Takes the finished buffer out of a Writer (no copy).
  explicit Payload(Writer&& w) : Payload(std::move(w).take()) {}
  /// Takes the finished frame out of a Writer and stamps its buffer.
  Payload(Writer&& w, SealStamp stamp)
      : buf_(std::make_shared<Buf>(std::move(w).take(), stamp)) {
    len_ = buf_->data.size();
  }

  [[nodiscard]] BytesView view() const {
    return buf_ ? BytesView(buf_->data).subspan(off_, len_) : BytesView{};
  }
  [[nodiscard]] const std::uint8_t* data() const { return buf_ ? buf_->data.data() + off_ : nullptr; }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  operator BytesView() const { return view(); }

  /// Copies the window out into an owned buffer.
  [[nodiscard]] Bytes to_bytes() const { return spider::to_bytes(view()); }

  /// Sub-window sharing the same buffer (and digest memo). Bounds-checked
  /// against this payload's window.
  [[nodiscard]] Payload slice(std::size_t off, std::size_t len) const;

  /// True if `sub` points into this payload's buffer.
  [[nodiscard]] bool contains(BytesView sub) const {
    if (!buf_ || sub.empty()) return false;
    const std::uint8_t* lo = buf_->data.data();
    return sub.data() >= lo && sub.data() + sub.size() <= lo + buf_->data.size();
  }

  /// Zero-copy slice covering `sub`, which must satisfy contains(sub).
  [[nodiscard]] Payload slice_of(BytesView sub) const;

  /// Memoized SHA-256 over view(). Identical to Sha256::hash(view()).
  [[nodiscard]] Sha256Digest digest() const;

  /// Memoized SHA-256 over `sub` when it points into this buffer; falls
  /// back to a direct (unmemoized) hash otherwise.
  [[nodiscard]] Sha256Digest digest_of(BytesView sub) const;

  /// Number of actual SHA-256 computations performed for this buffer
  /// (shared across slices). Test hook for the memoization contract.
  [[nodiscard]] std::size_t digest_computations() const {
    return buf_ ? buf_->computations : 0;
  }

  /// Two payloads share the same underlying buffer (not just equal bytes).
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const {
    return buf_ && buf_ == other.buf_;
  }

  /// Number of payloads (slices included) holding this buffer; 0 when empty.
  [[nodiscard]] long use_count() const { return buf_.use_count(); }

  /// The buffer's seal stamp (shared by every slice); a default stamp when
  /// the buffer was not built by a seal.
  [[nodiscard]] SealStamp stamp() const { return buf_ ? buf_->stamp : SealStamp{}; }
  /// True if this window is the whole buffer (false when empty).
  [[nodiscard]] bool whole() const { return buf_ && off_ == 0 && len_ == buf_->data.size(); }

 private:
  struct MemoEntry {
    std::size_t off;
    std::size_t len;
    Sha256Digest digest;
  };
  struct Buf {
    explicit Buf(Bytes b, SealStamp s = {}) : data(std::move(b)), stamp(s) {}
    const Bytes data;
    const SealStamp stamp;
    // Digest memo: tiny linear-scanned table (a wire message is digested
    // over at most a handful of distinct windows: full frame, body,
    // nested request payloads). Mutation is safe: the sim is
    // single-threaded and entries are a pure function of immutable bytes.
    mutable std::vector<MemoEntry> memo;
    mutable std::size_t computations = 0;
  };

  Sha256Digest digest_window(std::size_t off, std::size_t len) const;

  std::shared_ptr<const Buf> buf_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace spider
