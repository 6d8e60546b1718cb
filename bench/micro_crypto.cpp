// google-benchmark microbenchmarks for the crypto substrate (real wall
// time, not simulated time): SHA-256, HMAC-SHA-256 and FastCrypto signing
// and verification, the hot paths of the one crypto engine. The modeled
// costs the simulation charges come from CryptoCosts, not from these
// numbers.
#include <benchmark/benchmark.h>

#include "crypto/hmac.hpp"
#include "crypto/provider.hpp"

namespace spider {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(200)->Arg(4096);

void BM_FastCryptoSign(benchmark::State& state) {
  FastCrypto fc(1);
  Bytes msg(200, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.sign(1, msg));
  }
}
BENCHMARK(BM_FastCryptoSign);

void BM_FastCryptoVerify(benchmark::State& state) {
  FastCrypto fc(1);
  Bytes msg(200, 0x42);
  const Bytes sig = fc.sign(1, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.verify(1, msg, sig));
  }
}
BENCHMARK(BM_FastCryptoVerify);

void BM_FastCryptoVerifyMac(benchmark::State& state) {
  FastCrypto fc(1);
  Bytes msg(200, 0x42);
  const Bytes tag = fc.mac(1, 2, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.verify_mac(1, 2, msg, tag));
  }
}
BENCHMARK(BM_FastCryptoVerifyMac);

}  // namespace
}  // namespace spider

BENCHMARK_MAIN();
