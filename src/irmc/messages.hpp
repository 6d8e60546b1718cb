// IRMC wire messages (paper Appendix A.8 / A.9).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace spider::irmc {

enum class MsgType : std::uint8_t {
  Send = 1,         // RC: <Send, m, sc, p> signed by sender
  Move = 2,         // both: <Move, sc, p> MAC'd, either direction
  SigShare = 3,     // SC: <SigShare, h(m), sc, p> signed, sender-group internal
  Certificate = 4,  // SC: <Certificate, m, sc, p, shares> MAC'd by collector
  Progress = 5,     // SC: <Progress, {sc: p}> MAC'd, sender -> receivers
  Select = 6,       // SC: <Select, sc, collector> MAC'd, receiver -> senders
  Nack = 7,         // RC: <Nack, sc, p> MAC'd, receiver asks for retransmission
};

/// Decodes an opened frame's body (Component::open) past its type byte;
/// nothing when the frame did not open.
template <typename Msg>
std::optional<Msg> decode_opened(std::optional<BytesView> body) {
  if (!body) return std::nullopt;
  Reader r(*body);
  r.u8();
  return Msg::decode(r);
}

/// Zero-copy: `payload` views the content being encoded, or the wire
/// buffer it was decoded from (valid only while the buffer lives —
/// capture() it to retain).
struct SendMsg {
  Subchannel sc = 0;
  Position p = 0;
  BytesView payload;

  Bytes encode() const;
  static SendMsg decode(Reader& r);
};

struct MoveMsg {
  Subchannel sc = 0;
  Position p = 0;

  /// A Nack (`type`) has the same layout.
  Bytes encode(MsgType type = MsgType::Move) const;
  static MoveMsg decode(Reader& r);
};

struct SigShareMsg {
  Subchannel sc = 0;
  Position p = 0;
  Sha256Digest digest{};

  Bytes encode() const;
  static SigShareMsg decode(Reader& r);
};

struct CertificateMsg {
  Subchannel sc = 0;
  Position p = 0;
  Bytes payload;
  /// fs+1 (sender index, signature over that sender's SigShare bytes).
  std::vector<std::pair<std::uint32_t, Bytes>> shares;

  Bytes encode() const;
  static CertificateMsg decode(Reader& r);
};

/// Zero-copy decode of a CertificateMsg: payload and share signatures stay
/// views into the wire buffer.
struct CertificateMsgView {
  Subchannel sc = 0;
  Position p = 0;
  BytesView payload;
  std::vector<std::pair<std::uint32_t, BytesView>> shares;

  static CertificateMsgView decode(Reader& r);
};

struct ProgressMsg {
  std::vector<std::pair<Subchannel, Position>> progress;

  Bytes encode() const;
  static ProgressMsg decode(Reader& r);
};

struct SelectMsg {
  Subchannel sc = 0;
  std::uint32_t collector = 0;  // sender index chosen as collector

  Bytes encode() const;
  static SelectMsg decode(Reader& r);
};

}  // namespace spider::irmc
