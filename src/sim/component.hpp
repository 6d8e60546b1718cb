// Component multiplexing on top of SimNode.
//
// A replica process hosts several protocol components (consensus engine,
// IRMC endpoints, checkpointer, client frontend, ...). Each component owns
// a 32-bit tag; wire messages are [u32 tag][inner payload] and the host
// dispatches inbound messages to the registered component.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/serde.hpp"
#include "crypto/provider.hpp"
#include "sim/node.hpp"

namespace spider {

class Component;

/// Subsystem tag namespaces (high byte).
namespace tags {
constexpr std::uint32_t kPbft = 0x01000000;
constexpr std::uint32_t kIrmc = 0x02000000;       // | channel id (low 3 bytes)
constexpr std::uint32_t kClient = 0x03000000;     // client <-> replica traffic
constexpr std::uint32_t kCheckpoint = 0x04000000; // | group id
constexpr std::uint32_t kRegistry = 0x05000000;
constexpr std::uint32_t kHft = 0x06000000;
}  // namespace tags

class ComponentHost : public SimNode {
 public:
  using SimNode::SimNode;

  void register_component(std::uint32_t tag, Component* c) { components_[tag] = c; }
  void unregister_component(std::uint32_t tag) { components_.erase(tag); }

  /// Wraps and sends a component message.
  void send_component(std::uint32_t tag, NodeId to, BytesView inner);

  /// Dispatches inbound messages to components; unknown tags and malformed
  /// payloads are dropped (Byzantine-safe default).
  void on_message(NodeId from, BytesView data) override;

 private:
  std::unordered_map<std::uint32_t, Component*> components_;
};

/// Base class for protocol components.
class Component {
 public:
  Component(ComponentHost& host, std::uint32_t tag) : host_(host), tag_(tag) {
    host_.register_component(tag_, this);
  }
  virtual ~Component() { host_.unregister_component(tag_); }

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Inbound payload (without the tag). Throws SerdeError on malformed
  /// input; the host catches and drops.
  virtual void on_message(NodeId from, Reader& r) = 0;

  [[nodiscard]] std::uint32_t tag() const { return tag_; }

 protected:
  ComponentHost& host() { return host_; }
  [[nodiscard]] NodeId self() const { return host_.id(); }
  [[nodiscard]] Time now() const { return host_.now(); }
  CryptoProvider& crypto() { return host_.crypto(); }

  void send(NodeId to, BytesView inner) { host_.send_component(tag_, to, inner); }

  /// Builds the unauthenticated wire frame [tag][body] once, for a
  /// multicast that send_wire()s it to every destination.
  [[nodiscard]] Payload wire_frame(BytesView body) const;

  /// Sends a pre-built wire frame (zero-copy: refcount bump per recipient).
  void send_wire(NodeId to, Payload wire) { host_.send_to(to, std::move(wire)); }

  /// The host's authenticated-frame operations (SimNode), under this
  /// component's tag.
  Payload seal_mac(NodeId to, BytesView body) { return host_.seal_mac(tag_, to, body); }
  /// Sends `body` to each of `group`, MAC'd for each one.
  void send_mac_to_all(const std::vector<NodeId>& group, BytesView body) {
    for (NodeId to : group) send_wire(to, seal_mac(to, body));
  }
  Payload seal_signed(BytesView body) { return host_.seal_signed(tag_, body); }
  std::optional<BytesView> open(NodeId from, BytesView rest, bool is_sig) {
    return host_.open(from, tag_, rest, is_sig);
  }

  EventQueue::EventId set_timer(Duration delay, std::function<void()> fn) {
    return host_.set_timer(delay, std::move(fn));
  }
  void cancel_timer(EventQueue::EventId id) { host_.cancel_timer(id); }

 private:
  ComponentHost& host_;
  std::uint32_t tag_;
};

}  // namespace spider
