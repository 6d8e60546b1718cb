#include <gtest/gtest.h>

#include "app/kvstore.hpp"
#include "baselines/hft_system.hpp"
#include "common/hex.hpp"
#include "common/serde.hpp"
#include "consensus/pbft_messages.hpp"
#include "irmc/messages.hpp"
#include "spider/messages.hpp"

namespace spider {
namespace {

TEST(Serde, RoundTripPrimitives) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serde, BytesRoundTrip) {
  Bytes payload = {1, 2, 3, 4, 5};
  Writer w;
  w.bytes(payload);
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "hello");
  r.expect_done();
}

TEST(Serde, EmptyBytes) {
  Writer w;
  w.bytes({});
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RawBytesNoPrefix) {
  Writer w;
  Bytes raw = {9, 8, 7};
  w.raw(raw);
  EXPECT_EQ(w.size(), 3u);
  Reader r(w.data());
  BytesView v = r.raw(3);
  EXPECT_TRUE(bytes_equal(v, raw));
}

TEST(Serde, TruncatedU64Throws) {
  Bytes buf = {1, 2, 3};
  Reader r(buf);
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, TruncatedBytesThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, OversizedLengthPrefixThrows) {
  Writer w;
  w.u32(0xffffffffu);
  Reader r(w.data());
  EXPECT_THROW(r.bytes_view(), SerdeError);
}

TEST(Serde, InvalidBooleanThrows) {
  Bytes buf = {7};
  Reader r(buf);
  EXPECT_THROW(r.boolean(), SerdeError);
}

TEST(Serde, ExpectDoneDetectsTrailing) {
  Bytes buf = {1, 2};
  Reader r(buf);
  r.u8();
  EXPECT_THROW(r.expect_done(), SerdeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serde, NestedMessages) {
  Writer inner;
  inner.u32(7);
  inner.str("nested");

  Writer outer;
  outer.u8(1);
  outer.bytes(inner.data());

  Reader r(outer.data());
  EXPECT_EQ(r.u8(), 1);
  Reader ir(r.bytes_view());
  EXPECT_EQ(ir.u32(), 7u);
  EXPECT_EQ(ir.str(), "nested");
}

// ------------------------------------------------------- hostile counts
//
// A peer-supplied u32 count must never size an allocation: each decoder
// reads it with Reader::count, which rejects a count the remaining input
// cannot hold with SerdeError (the one exception the component host drops)
// instead of letting reserve() throw std::bad_alloc past it.

constexpr std::uint32_t kHostileCount = 0xFFFFFFFFu;

/// `prefix` followed by a hostile count and a few trailing bytes.
Bytes with_hostile_count(const Writer& prefix) {
  Writer w;
  w.raw(prefix.data());
  w.u32(kHostileCount);
  w.u64(0);
  return std::move(w).take();
}

TEST(Serde, CountAcceptsExactFitAndRejectsOneMore) {
  Writer w;
  w.u32(2);
  w.u64(1);
  w.u64(2);
  Reader ok(w.data());
  EXPECT_EQ(ok.count(8), 2u);
  EXPECT_EQ(ok.remaining(), 16u);
  Reader tight(w.data());
  EXPECT_THROW(tight.count(9), SerdeError);
}

TEST(HostileCount, CertificateMsgThrowsSerdeError) {
  Writer w;
  w.u64(1);  // sc
  w.u64(1);  // p
  w.bytes(Bytes{1, 2, 3});
  const Bytes wire = with_hostile_count(w);
  Reader r(wire);
  EXPECT_THROW(irmc::CertificateMsg::decode(r), SerdeError);
}

TEST(HostileCount, CertificateMsgViewThrowsSerdeError) {
  Writer w;
  w.u64(1);
  w.u64(1);
  w.bytes(Bytes{1, 2, 3});
  const Bytes wire = with_hostile_count(w);
  Reader r(wire);
  EXPECT_THROW(irmc::CertificateMsgView::decode(r), SerdeError);
}

TEST(HostileCount, ProgressMsgThrowsSerdeError) {
  const Bytes wire = with_hostile_count(Writer{});
  Reader r(wire);
  EXPECT_THROW(irmc::ProgressMsg::decode(r), SerdeError);
}

TEST(HostileCount, ReconfigCmdThrowsSerdeError) {
  Writer w;
  w.boolean(true);
  w.u32(7);  // group
  w.u8(0);   // region
  const Bytes wire = with_hostile_count(w);
  Reader r(wire);
  EXPECT_THROW(ReconfigCmd::decode(r), SerdeError);
}

TEST(HostileCount, RegistryEntryThrowsSerdeError) {
  Writer w;
  w.u32(7);
  w.u8(0);
  const Bytes wire = with_hostile_count(w);
  Reader r(wire);
  EXPECT_THROW(RegistryEntry::decode(r), SerdeError);
}

TEST(HostileCount, RegistrySnapshotThrowsSerdeError) {
  Writer w;
  w.u64(3);  // version
  const Bytes wire = with_hostile_count(w);
  Reader r(wire);
  EXPECT_THROW(RegistrySnapshot::decode(r), SerdeError);
}

TEST(HostileCount, HftCertificateThrowsSerdeError) {
  const Bytes wire = with_hostile_count(Writer{});
  Reader r(wire);
  EXPECT_THROW(hft::read_cert(r), SerdeError);
}

TEST(HostileCount, PbftMessagesThrowSerdeError) {
  Writer vs;  // view/new_view, seq/stable_floor
  vs.u64(1);
  vs.u64(1);
  const Bytes preprepare = with_hostile_count(vs);
  Reader pp(preprepare);
  EXPECT_THROW(pbft::PrePrepareMsg::decode(pp), SerdeError);

  vs.u32(0);  // replica
  const Bytes change = with_hostile_count(vs);
  Reader vc(change);
  EXPECT_THROW(pbft::ViewChangeMsg::decode(vc), SerdeError);
  Reader nv(change);
  EXPECT_THROW(pbft::NewViewMsg::decode(nv), SerdeError);

  // A proof inside a view change whose own request count is hostile.
  Writer proof;
  proof.u64(2);  // new_view
  proof.u64(0);  // stable_floor
  proof.u32(0);  // replica
  proof.u32(1);  // one proof
  proof.u64(1);  // its seq
  proof.u64(0);  // its view
  const Bytes nested = with_hostile_count(proof);
  Reader np(nested);
  EXPECT_THROW(pbft::ViewChangeMsg::decode(np), SerdeError);
}

TEST(HostileCount, ExecuteBatchThrowsSerdeError) {
  const Bytes wire = with_hostile_count(Writer{});
  Reader r(wire);
  EXPECT_THROW(ExecuteBatchMsg::decode(r), SerdeError);
}

TEST(HostileCount, KvSnapshotRestoreThrowsSerdeError) {
  Writer w;
  w.u64(1);  // version
  const Bytes snapshot = with_hostile_count(w);
  KvStore kv;
  EXPECT_THROW(kv.restore(snapshot), SerdeError);
  EXPECT_THROW(kv.absorb_keys(BytesView(snapshot).subspan(8)), SerdeError);
}

// The minimum entry sizes are exact: a message whose entries all have the
// smallest encoding fills its input to the byte and still decodes.
TEST(HostileCount, SmallestEntriesStillDecode) {
  irmc::CertificateMsg cert{1, 2, {}, {{0, {}}, {1, {}}}};
  const Bytes cert_wire = cert.encode();
  Reader cr(BytesView(cert_wire).subspan(1));
  EXPECT_EQ(irmc::CertificateMsg::decode(cr).shares.size(), 2u);
  Reader cvr(BytesView(cert_wire).subspan(1));
  EXPECT_EQ(irmc::CertificateMsgView::decode(cvr).shares.size(), 2u);

  irmc::ProgressMsg progress{{{1, 2}, {3, 4}}};
  const Bytes progress_wire = progress.encode();
  Reader pr(BytesView(progress_wire).subspan(1));
  EXPECT_EQ(irmc::ProgressMsg::decode(pr).progress.size(), 2u);

  RegistrySnapshot reg{5, {RegistryEntry{1, Region::Virginia, {}},
                           RegistryEntry{2, Region::Tokyo, {}}}};
  const Bytes reg_wire = reg.encode();
  Reader rr(reg_wire);
  EXPECT_EQ(RegistrySnapshot::decode(rr).groups.size(), 2u);

  pbft::ViewChangeMsg vc{2, 0, 1, {pbft::PreparedProof{1, 0, {}}, pbft::PreparedProof{2, 0, {}}}};
  const Bytes vc_wire = vc.encode();
  Reader vr(BytesView(vc_wire).subspan(1));
  EXPECT_EQ(pbft::ViewChangeMsg::decode(vr).prepared.size(), 2u);

  ExecuteBatchMsg batch;
  batch.items.push_back(ExecuteMsg{});
  batch.items.push_back(ExecuteMsg{});
  const Bytes batch_wire = batch.encode();
  Reader br(batch_wire);
  EXPECT_EQ(ExecuteBatchMsg::decode(br).items.size(), 2u);

  std::vector<std::pair<NodeId, Bytes>> sigs{{1, {}}, {2, {}}};
  Writer hw;
  hft::write_cert(hw, sigs);
  Reader hr(hw.data());
  EXPECT_EQ(hft::read_cert(hr).size(), 2u);
}

TEST(Hex, RoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), b);
  EXPECT_EQ(from_hex("0001ABFF"), b);
}

TEST(Hex, Malformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Serde, SizeHintedWriterProducesIdenticalBytes) {
  // The size hint is a pure allocation optimization: wire bytes must be
  // byte-identical with and without it, and a (possibly wrong) hint must
  // never truncate.
  auto fill = [](Writer& w) {
    w.u8(7);
    w.u64(0x1122334455667788ULL);
    w.str("size-hinted");
    w.bytes(Bytes(300, 0x5a));
  };
  Writer plain;
  fill(plain);
  Writer hinted(1 + 8 + 4 + 11 + 4 + 300);
  fill(hinted);
  Writer underestimated(4);  // too small: must still grow correctly
  fill(underestimated);
  EXPECT_EQ(plain.data(), hinted.data());
  EXPECT_EQ(plain.data(), underestimated.data());
}

TEST(Serde, ReaderBytesViewIsZeroCopy) {
  Writer w;
  w.bytes(to_bytes(std::string("shared-not-copied")));
  const Bytes& wire = w.data();
  Reader r(wire);
  BytesView v = r.bytes_view();
  EXPECT_EQ(to_string(v), "shared-not-copied");
  // The view aliases the wire buffer (no copy happened).
  EXPECT_EQ(v.data(), wire.data() + 4);
}

class SerdeSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SerdeSizeSweep, LargeBufferRoundTrip) {
  std::size_t n = GetParam();
  Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Writer w;
  w.bytes(payload);
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerdeSizeSweep,
                         ::testing::Values(0, 1, 63, 64, 65, 255, 256, 1024, 65536));

}  // namespace
}  // namespace spider
