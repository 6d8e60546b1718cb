// Real-socket Transport backend: UDP + framed TCP through an epoll reactor.
//
// One LoopbackTransport hosts N in-process endpoints, each bound to real
// sockets on 127.0.0.1 (ephemeral ports):
//
//   * kUnordered traffic rides UDP datagrams ([u32 from][payload]) — the
//     weak-read fast path tolerates loss and reordering, so datagrams map
//     exactly onto its semantics.
//   * kOrdered traffic rides length-prefixed framed TCP (tcp_framer.hpp),
//     one outbound connection per (from, to) pair, established lazily on
//     first send and re-established with exponential backoff after failure.
//
// The delivery contract matches SimNetwork (see net/transport.hpp and the
// conformance battery in tests/test_transport.cpp): FIFO per (from, to)
// within a traffic class, refcounted multicast payloads (the payload buffer
// is shared by every connection's write queue — never copied, never
// mutated), silent drop to unknown ids, detach-drops-inflight (detach
// closes the endpoint's sockets, so kernel-buffered bytes die with them),
// and down-node drops at both send and dispatch.
//
// Write backpressure: each outbound connection buffers at most
// `max_queue_bytes` beyond what the kernel accepts; past that, new sends on
// that connection are dropped and counted (`counters().dropped_backpressure`)
// instead of growing without bound — fire-and-forget never blocks.
//
// Everything is single-threaded: send() enqueues to kernel buffers or user
// queues, poll() runs the reactor once and dispatches deliveries on the
// calling thread. Pair with net::RealtimeDriver to interleave the reactor
// with a World's virtual-time event queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/epoll_reactor.hpp"
#include "net/tcp_framer.hpp"
#include "net/transport.hpp"

namespace spider::net {

class LoopbackTransport final : public Transport {
 public:
  struct Config {
    std::size_t max_frame = kDefaultMaxFrame;
    /// Per-connection user-space write-queue cap (bytes); beyond it sends
    /// on that connection are dropped, not buffered.
    std::size_t max_queue_bytes = 8u * 1024 * 1024;
    std::chrono::milliseconds backoff_min{5};
    std::chrono::milliseconds backoff_max{500};
    /// UDP receive buffer request (best-effort; the kernel may clamp).
    int udp_rcvbuf = 1 << 22;
  };

  LoopbackTransport() : LoopbackTransport(Config()) {}
  explicit LoopbackTransport(Config cfg);
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  // ---- Transport ---------------------------------------------------------
  void attach(TransportEndpoint* ep) override;
  void detach(NodeId id) override;
  void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) override;
  void set_node_down(NodeId id, bool down) override;
  [[nodiscard]] bool is_down(NodeId id) const override;

  // ---- driving -----------------------------------------------------------
  /// Runs the reactor once: waits up to `timeout_ms` for socket readiness,
  /// dispatches reads/writes/timers, delivers complete messages to their
  /// endpoints. Returns the number of I/O events handled.
  std::size_t poll(int timeout_ms);

  /// Polls with zero timeout until a pass handles no events (bounded by
  /// `max_passes`). Useful in tests to settle loopback traffic.
  void drain(std::size_t max_passes = 1000);

  // ---- introspection -----------------------------------------------------
  struct Counters {
    std::uint64_t udp_datagrams_sent = 0;
    std::uint64_t udp_datagrams_received = 0;
    std::uint64_t udp_send_failures = 0;  // kernel refused (buffer full, ...)
    std::uint64_t tcp_frames_sent = 0;    // enqueued onto a connection
    std::uint64_t tcp_frames_received = 0;
    std::uint64_t tcp_connects = 0;       // successful connection establishments
    std::uint64_t tcp_retries = 0;        // backoff-scheduled reconnect attempts
    std::uint64_t tcp_decode_errors = 0;  // framer violations -> connection closed
    std::uint64_t tcp_dirty_closes = 0;   // peer closed mid-frame
    std::uint64_t dropped_backpressure = 0;
    std::uint64_t dropped_unknown_dest = 0;
    std::uint64_t dropped_down = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  EpollReactor& reactor() { return reactor_; }

 private:
  struct Endpoint {
    TransportEndpoint* ep = nullptr;
    int udp_fd = -1;
    int listen_fd = -1;
    std::uint16_t udp_port = 0;
    std::uint16_t tcp_port = 0;
  };

  /// One queued ordered message: 8-byte prologue + refcounted payload.
  /// `off` advances across head.size() + body.size() as the kernel accepts
  /// bytes; the payload buffer itself is shared with every other
  /// destination of the same multicast.
  struct OutChunk {
    Bytes head;
    Payload body;
    std::size_t off = 0;
  };

  struct OutboundConn {
    NodeId from = 0;
    NodeId to = 0;
    int fd = -1;
    bool connected = false;
    std::deque<OutChunk> queue;
    std::size_t queued_bytes = 0;
    std::chrono::milliseconds backoff{0};
    EpollReactor::TimerId retry_timer = 0;
  };

  struct InboundConn {
    int fd = -1;
    NodeId to = 0;  // endpoint this connection delivers to
    FrameDecoder decoder;
    explicit InboundConn(std::size_t max_frame) : decoder(max_frame) {}
  };

  void send_udp(NodeId from, NodeId to, const Payload& payload);
  void send_tcp(NodeId from, NodeId to, Payload payload);

  OutboundConn* get_outbound(NodeId from, NodeId to);
  void start_connect(const std::shared_ptr<OutboundConn>& conn);
  void on_outbound_ready(const std::shared_ptr<OutboundConn>& conn, std::uint32_t events);
  void flush_outbound(const std::shared_ptr<OutboundConn>& conn);
  void fail_outbound(const std::shared_ptr<OutboundConn>& conn);
  void destroy_outbound(const std::shared_ptr<OutboundConn>& conn);
  void close_outbound_fd(OutboundConn& conn);

  void on_udp_readable(NodeId id);
  void on_accept(NodeId id);
  void on_inbound_readable(int fd);
  void close_inbound(int fd);

  void dispatch(NodeId from, NodeId to, Payload payload);
  void account_send(NodeId from, NodeId to, std::size_t bytes);

  Config cfg_;
  EpollReactor reactor_;
  std::unordered_map<NodeId, Endpoint> endpoints_;
  std::map<std::pair<NodeId, NodeId>, std::shared_ptr<OutboundConn>> outbound_;
  std::unordered_map<int, std::unique_ptr<InboundConn>> inbound_;
  std::unordered_map<NodeId, bool> down_;
  Counters counters_;
  std::vector<std::uint8_t> udp_buf_;
};

}  // namespace spider::net
