#include <gtest/gtest.h>

#include "crypto/provider.hpp"

namespace spider {
namespace {

// The CryptoProvider contract, checked through the interface the way World
// holds its provider. FastCrypto is the one implementation; its instance keeps
// the suite's original name and parameter (`/FastCrypto`, `false`), so test
// results stay comparable with versions that ran a second provider here.
class ProviderSuite : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { provider_ = std::make_unique<FastCrypto>(7); }
  std::unique_ptr<CryptoProvider> provider_;
};

TEST_P(ProviderSuite, SignVerify) {
  Bytes msg = to_bytes(std::string("hello"));
  Bytes sig = provider_->sign(1, msg);
  EXPECT_EQ(sig.size(), provider_->signature_size());
  EXPECT_TRUE(provider_->verify(1, msg, sig));
}

TEST_P(ProviderSuite, VerifyRejectsWrongSigner) {
  Bytes msg = to_bytes(std::string("hello"));
  Bytes sig = provider_->sign(1, msg);
  EXPECT_FALSE(provider_->verify(2, msg, sig));
}

TEST_P(ProviderSuite, VerifyRejectsTamperedMessage) {
  Bytes msg = to_bytes(std::string("hello"));
  Bytes sig = provider_->sign(1, msg);
  Bytes other = to_bytes(std::string("hellO"));
  EXPECT_FALSE(provider_->verify(1, other, sig));
}

TEST_P(ProviderSuite, VerifyRejectsTamperedSignature) {
  Bytes msg = to_bytes(std::string("hello"));
  Bytes sig = provider_->sign(1, msg);
  sig[0] ^= 0xff;
  EXPECT_FALSE(provider_->verify(1, msg, sig));
}

TEST_P(ProviderSuite, MacRoundTrip) {
  Bytes msg = to_bytes(std::string("macme"));
  Bytes tag = provider_->mac(1, 2, msg);
  EXPECT_EQ(tag.size(), provider_->mac_size());
  EXPECT_TRUE(provider_->verify_mac(1, 2, msg, tag));
  // MAC keys are pairwise symmetric: the reverse direction verifies too.
  EXPECT_TRUE(provider_->verify_mac(2, 1, msg, tag));
}

TEST_P(ProviderSuite, MacRejectsOtherPair) {
  Bytes msg = to_bytes(std::string("macme"));
  Bytes tag = provider_->mac(1, 2, msg);
  EXPECT_FALSE(provider_->verify_mac(1, 3, msg, tag));
}

TEST_P(ProviderSuite, MacRejectsTamper) {
  Bytes msg = to_bytes(std::string("macme"));
  Bytes tag = provider_->mac(1, 2, msg);
  Bytes other = to_bytes(std::string("macmE"));
  EXPECT_FALSE(provider_->verify_mac(1, 2, other, tag));
  tag[3] ^= 1;
  EXPECT_FALSE(provider_->verify_mac(1, 2, msg, tag));
}

TEST_P(ProviderSuite, CostsPositive) {
  const CryptoCosts& c = provider_->costs();
  EXPECT_GT(c.sign, 0);
  EXPECT_GT(c.verify, 0);
  EXPECT_GT(c.mac, 0);
  EXPECT_GT(c.sign, c.verify);  // RSA asymmetry the evaluation relies on
  EXPECT_GT(c.verify, c.mac);
}

INSTANTIATE_TEST_SUITE_P(Providers, ProviderSuite, ::testing::Values(false),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return std::string("FastCrypto");
                         });

TEST(FastCrypto, SignatureSizeMatchesRsa1024) {
  FastCrypto fc(1);
  EXPECT_EQ(fc.signature_size(), 128u);  // RSA-1024 signature bytes
}

// verify and verify_mac compare in place; they must reject exactly what
// comparing against a freshly built sign()/mac() rejects.
TEST(FastCrypto, VerifyChecksEveryByteOfTagAndPadding) {
  FastCrypto fc(3);
  const Bytes msg = to_bytes(std::string("in place"));
  const Bytes sig = fc.sign(9, msg);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    Bytes bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(fc.verify(9, msg, bad)) << "byte " << i;
  }
  EXPECT_FALSE(fc.verify(9, msg, BytesView(sig).first(sig.size() - 1)));
  Bytes longer = sig;
  longer.push_back(0);
  EXPECT_FALSE(fc.verify(9, msg, longer));

  const Bytes tag = fc.mac(4, 5, msg);
  for (std::size_t i = 0; i < tag.size(); ++i) {
    Bytes bad = tag;
    bad[i] ^= 0x80;
    EXPECT_FALSE(fc.verify_mac(4, 5, msg, bad)) << "byte " << i;
  }
  EXPECT_FALSE(fc.verify_mac(4, 5, msg, BytesView(tag).first(15)));
  EXPECT_FALSE(fc.verify_mac(4, 5, msg, BytesView(sig).first(32)));
}

}  // namespace
}  // namespace spider
