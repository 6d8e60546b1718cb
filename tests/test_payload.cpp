// Payload: refcounted immutable buffers with memoized digests — the
// zero-copy transport contract.
#include <gtest/gtest.h>

#include "common/payload.hpp"

namespace spider {
namespace {

Bytes some_bytes(std::size_t n, std::uint8_t salt = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return b;
}

TEST(Payload, ViewMatchesSourceBytes) {
  Bytes src = some_bytes(100);
  Payload p(src);
  ASSERT_EQ(p.size(), src.size());
  EXPECT_TRUE(bytes_equal(p.view(), src));
  EXPECT_TRUE(bytes_equal(p.to_bytes(), src));
}

TEST(Payload, FromWriterTakesBufferWithoutCopy) {
  Writer w(16);
  w.u32(0xdeadbeef);
  w.str("hello");
  Bytes expect = w.data();
  Payload p(std::move(w));
  EXPECT_TRUE(bytes_equal(p.view(), expect));
}

TEST(Payload, DigestIsMemoized) {
  Payload p(some_bytes(1000));
  Sha256Digest d1 = p.digest();
  Sha256Digest d2 = p.digest();
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(p.digest_computations(), 1u) << "second digest() must hit the memo";
  EXPECT_EQ(d1, Sha256::hash(p.view())) << "memoized digest must be bit-identical";
}

TEST(Payload, SubWindowDigestsAreMemoizedIndependently) {
  Payload p(some_bytes(256));
  BytesView head = p.view().subspan(0, 64);
  BytesView tail = p.view().subspan(64);
  Sha256Digest dh = p.digest_of(head);
  Sha256Digest dt = p.digest_of(tail);
  EXPECT_EQ(p.digest_computations(), 2u);
  EXPECT_EQ(dh, p.digest_of(head));
  EXPECT_EQ(dt, p.digest_of(tail));
  EXPECT_EQ(p.digest_computations(), 2u) << "repeat sub-digests must hit the memo";
  EXPECT_EQ(dh, Sha256::hash(head));
  EXPECT_EQ(dt, Sha256::hash(tail));
}

TEST(Payload, SliceSharesBufferAndMemo) {
  Payload p(some_bytes(256));
  Payload s = p.slice(16, 100);
  EXPECT_TRUE(s.shares_buffer_with(p));
  EXPECT_TRUE(bytes_equal(s.view(), p.view().subspan(16, 100)));

  // A digest computed through the slice is visible through the parent.
  Sha256Digest d = s.digest();
  EXPECT_EQ(p.digest_computations(), 1u);
  EXPECT_EQ(d, p.digest_of(p.view().subspan(16, 100)));
  EXPECT_EQ(p.digest_computations(), 1u) << "parent must reuse the slice's memo entry";
}

TEST(Payload, SliceOfRoundTripsViews) {
  Payload p(some_bytes(128));
  BytesView sub = p.view().subspan(40, 30);
  ASSERT_TRUE(p.contains(sub));
  Payload s = p.slice_of(sub);
  EXPECT_TRUE(s.shares_buffer_with(p));
  EXPECT_TRUE(bytes_equal(s.view(), sub));

  Bytes other = some_bytes(10);
  EXPECT_FALSE(p.contains(other));
  EXPECT_THROW(p.slice_of(other), std::out_of_range);
  EXPECT_THROW(p.slice(100, 100), std::out_of_range);
}

TEST(Payload, DigestInvalidationMeansRebuilding) {
  // Payloads are immutable, so "invalidating" a memoized digest is done by
  // constructing a new Payload from the modified bytes: the new buffer
  // starts with an empty memo and must recompute, while the original's
  // memo stays valid for its unchanged bytes.
  Bytes src = some_bytes(200);
  Payload original(src);
  Sha256Digest d_orig = original.digest();

  src[7] ^= 0xff;  // "mutation" produces a different payload
  Payload rebuilt(src);
  Sha256Digest d_new = rebuilt.digest();
  EXPECT_NE(d_orig, d_new);
  EXPECT_EQ(rebuilt.digest_computations(), 1u) << "rebuilt payload must hash fresh bytes";
  EXPECT_EQ(original.digest(), d_orig);
  EXPECT_EQ(original.digest_computations(), 1u) << "original memo must survive the rebuild";
}

TEST(Payload, EmptyPayloadBehaves) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.digest(), Sha256::hash({}));
  EXPECT_FALSE(p.contains(BytesView{}));
}

TEST(Payload, RefcountKeepsBufferAliveAcrossOwnerDeath) {
  Payload s;
  {
    Payload p(some_bytes(64));
    s = p.slice(8, 16);
  }
  // p is gone; the slice still reads valid bytes.
  Bytes expect = some_bytes(64);
  EXPECT_TRUE(bytes_equal(s.view(), BytesView(expect).subspan(8, 16)));
}

TEST(Payload, SealStampSurvivesSlicesButOnlyTheWholeBufferIsWhole) {
  Writer w;
  w.raw(some_bytes(40));
  const SealStamp stamp{7, 9, 24};
  Payload p(std::move(w), stamp);
  EXPECT_TRUE(p.whole());
  EXPECT_EQ(p.stamp().sealer, 7u);
  EXPECT_EQ(p.stamp().sealed_for, 9u);
  EXPECT_EQ(p.stamp().prefix_len, 24u);

  // The stamp belongs to the buffer, so every window sees it...
  for (const Payload& s :
       {p.slice(0, 40), p.slice(0, 39), p.slice(1, 39), p.slice_of(p.view().subspan(4))}) {
    EXPECT_EQ(s.stamp().sealer, 7u);
    EXPECT_EQ(s.stamp().prefix_len, 24u);
  }
  // ...but only a window over all of it is the whole buffer.
  EXPECT_TRUE(p.slice(0, 40).whole());
  EXPECT_FALSE(p.slice(0, 39).whole());
  EXPECT_FALSE(p.slice(1, 39).whole());
}

TEST(Payload, CopiedBytesCarryNoStamp) {
  Writer w;
  w.raw(some_bytes(40));
  Payload sealed(std::move(w), SealStamp{7, 0, 24});
  for (const Payload& p : {Payload(sealed.view()), Payload(sealed.to_bytes()), Payload()}) {
    EXPECT_EQ(p.stamp().sealer, 0u);
    EXPECT_EQ(p.stamp().sealed_for, 0u);
    EXPECT_EQ(p.stamp().prefix_len, 0u);
  }
  EXPECT_FALSE(Payload().whole());
}

}  // namespace
}  // namespace spider
