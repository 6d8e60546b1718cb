#include "sim/component.hpp"

namespace spider {

void ComponentHost::send_component(std::uint32_t tag, NodeId to, BytesView inner) {
  Writer w(4 + inner.size());
  w.u32(tag);
  w.raw(inner);
  send_to(to, Payload(std::move(w)));
}

void ComponentHost::on_message(NodeId from, BytesView data) {
  try {
    Reader r(data);
    std::uint32_t tag = r.u32();
    auto it = components_.find(tag);
    if (it == components_.end()) return;  // unknown component: drop
    it->second->on_message(from, r);
  } catch (const SerdeError&) {
    // Malformed (possibly Byzantine) message: drop silently.
  }
}

Payload Component::wire_frame(BytesView body) const {
  Writer w(4 + body.size());
  w.u32(tag_);
  w.raw(body);
  return Payload(std::move(w));
}

}  // namespace spider
