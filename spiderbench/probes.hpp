// Outside-in probes for the traced run. Each decorator sits on a seam the
// program already exposes (CryptoProvider, Transport, Application), times
// every call into the layer behind it and counts the work, attributing it
// by the u32 component tag every wire frame and every authenticated byte
// string starts with. Calls happen inside the event the benchmark's own
// loop is running, so each timed call is a child span of that event and a
// handler's self time is the event's time minus its children.
//
// The decorators change no bytes, draw no randomness and schedule nothing:
// the traced run must reproduce the untraced run exactly (bench.cpp checks
// this by digest).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "app/application.hpp"
#include "crypto/provider.hpp"
#include "net/transport.hpp"
#include "sim/component.hpp"

namespace spiderbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Traffic components, by the high byte of the leading u32 tag.
enum Comp : std::uint8_t { kOther, kPbft, kIrmc, kClient, kCheckpoint, kRegistry, kCompCount };
inline const char* comp_name(int c) {
  static const char* const names[] = {"other", "pbft", "irmc", "client", "checkpoint",
                                      "registry"};
  return names[c];
}

inline Comp comp_of(spider::BytesView m) {
  if (m.size() < 4) return kOther;
  const std::uint32_t tag = static_cast<std::uint32_t>(m[0]) |
                            static_cast<std::uint32_t>(m[1]) << 8 |
                            static_cast<std::uint32_t>(m[2]) << 16 |
                            static_cast<std::uint32_t>(m[3]) << 24;
  switch (tag & 0xFF000000u) {
    case spider::tags::kPbft: return kPbft;
    case spider::tags::kIrmc: return kIrmc;
    case spider::tags::kClient: return kClient;
    case spider::tags::kCheckpoint: return kCheckpoint;
    case spider::tags::kRegistry: return kRegistry;
    default: return kOther;
  }
}

enum CryptoOp : std::uint8_t { kSign, kVerify, kMac, kVerifyMac, kCryptoOpCount };
inline const char* crypto_op_name(int op) {
  static const char* const names[] = {"sign", "verify", "mac", "verify_mac"};
  return names[op];
}

/// Counters every probe writes. Reset at the start of the timed phase.
struct Probe {
  std::array<std::uint64_t, kCryptoOpCount> crypto_calls{};
  std::array<std::uint64_t, kCryptoOpCount> crypto_ns{};
  std::array<std::uint64_t, kCompCount> crypto_ns_by_comp{};
  std::uint64_t verify_failed = 0;

  std::array<std::uint64_t, kCompCount> msgs{};
  std::array<std::uint64_t, kCompCount> bytes{};
  std::uint64_t send_ns = 0;

  std::uint64_t app_execute = 0;   // ordered writes applied
  std::uint64_t app_readonly = 0;  // ordered (strong) reads
  std::uint64_t app_weak = 0;      // fast-path reads
  std::uint64_t app_ns = 0;        // time in the three calls above
  std::uint64_t app_snapshots = 0;  // checkpoint snapshots and restores
  std::uint64_t app_snapshot_ns = 0;

  [[nodiscard]] std::uint64_t crypto_total_ns() const {
    std::uint64_t s = 0;
    for (auto v : crypto_ns) s += v;
    return s;
  }
  /// Time of every child span: what the enclosing events did outside
  /// their own handler code.
  [[nodiscard]] std::uint64_t child_ns() const {
    return crypto_total_ns() + send_ns + app_ns + app_snapshot_ns;
  }
  [[nodiscard]] std::uint64_t app_calls() const { return app_execute + app_readonly + app_weak; }
};

/// Times and attributes every crypto call of the wrapped provider.
class TimedCrypto final : public spider::CryptoProvider {
 public:
  TimedCrypto(std::unique_ptr<spider::CryptoProvider> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {
    costs() = inner_->costs();
  }

  spider::Bytes sign(spider::NodeId signer, spider::BytesView m) override {
    const std::uint64_t t0 = now_ns();
    spider::Bytes out = inner_->sign(signer, m);
    account(kSign, m, t0);
    return out;
  }
  bool verify(spider::NodeId signer, spider::BytesView m, spider::BytesView sig) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->verify(signer, m, sig);
    account(kVerify, m, t0);
    if (!ok) ++probe_.verify_failed;
    return ok;
  }
  spider::Bytes mac(spider::NodeId from, spider::NodeId to, spider::BytesView m) override {
    const std::uint64_t t0 = now_ns();
    spider::Bytes out = inner_->mac(from, to, m);
    account(kMac, m, t0);
    return out;
  }
  bool verify_mac(spider::NodeId from, spider::NodeId to, spider::BytesView m,
                  spider::BytesView tag) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->verify_mac(from, to, m, tag);
    account(kVerifyMac, m, t0);
    if (!ok) ++probe_.verify_failed;
    return ok;
  }
  [[nodiscard]] std::size_t signature_size() const override { return inner_->signature_size(); }

 private:
  void account(CryptoOp op, spider::BytesView m, std::uint64_t t0) {
    const std::uint64_t dt = now_ns() - t0;
    ++probe_.crypto_calls[op];
    probe_.crypto_ns[op] += dt;
    probe_.crypto_ns_by_comp[comp_of(m)] += dt;
  }

  std::unique_ptr<spider::CryptoProvider> inner_;
  Probe& probe_;
};

/// Times every send and counts messages and bytes per component. Mirrors
/// the wrapped transport's link statistics so registry snapshots read the
/// same WAN/LAN totals as an undecorated run.
class TimedTransport final : public spider::Transport {
 public:
  TimedTransport(spider::Transport& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  void attach(spider::TransportEndpoint* ep) override { inner_.attach(ep); }
  void detach(spider::NodeId id) override { inner_.detach(id); }
  void send(spider::NodeId from, spider::NodeId to, spider::Payload payload,
            spider::TrafficClass cls) override {
    const Comp c = comp_of(payload.view());
    ++probe_.msgs[c];
    probe_.bytes[c] += payload.size();
    const std::uint64_t t0 = now_ns();
    inner_.send(from, to, std::move(payload), cls);
    probe_.send_ns += now_ns() - t0;
    stats_ = inner_.stats();
  }
  void set_node_down(spider::NodeId id, bool down) override { inner_.set_node_down(id, down); }
  [[nodiscard]] bool is_down(spider::NodeId id) const override { return inner_.is_down(id); }
  void reset_stats() override {
    inner_.reset_stats();
    Transport::reset_stats();
  }

 private:
  spider::Transport& inner_;
  Probe& probe_;
};

/// Times and counts every call into the replicated application.
class TimedApp final : public spider::Application {
 public:
  TimedApp(std::unique_ptr<spider::Application> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  spider::Bytes execute(spider::BytesView op) override {
    ++probe_.app_execute;
    return timed(probe_.app_ns, [&] { return inner_->execute(op); });
  }
  spider::Bytes execute_readonly(spider::BytesView op) const override {
    ++probe_.app_readonly;
    return timed(probe_.app_ns, [&] { return inner_->execute_readonly(op); });
  }
  spider::Bytes execute_weak(spider::BytesView op) const override {
    ++probe_.app_weak;
    return timed(probe_.app_ns, [&] { return inner_->execute_weak(op); });
  }
  spider::Bytes snapshot() const override {
    ++probe_.app_snapshots;
    return timed(probe_.app_snapshot_ns, [&] { return inner_->snapshot(); });
  }
  void restore(spider::BytesView s) override {
    ++probe_.app_snapshots;
    const std::uint64_t t0 = now_ns();
    inner_->restore(s);
    probe_.app_snapshot_ns += now_ns() - t0;
  }
  std::unique_ptr<spider::Application> clone_empty() const override {
    return std::make_unique<TimedApp>(inner_->clone_empty(), probe_);
  }
  std::vector<std::string> op_keys(spider::BytesView op) const override {
    return inner_->op_keys(op);
  }
  spider::Bytes extract_keys(const std::function<bool(std::string_view)>& moved) override {
    return inner_->extract_keys(moved);
  }
  void absorb_keys(spider::BytesView state) override { inner_->absorb_keys(state); }

 private:
  template <class F>
  static spider::Bytes timed(std::uint64_t& ns, F&& f) {
    const std::uint64_t t0 = now_ns();
    spider::Bytes out = f();
    ns += now_ns() - t0;
    return out;
  }

  std::unique_ptr<spider::Application> inner_;
  Probe& probe_;
};

}  // namespace spiderbench
