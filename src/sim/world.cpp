#include "sim/world.hpp"

#include <algorithm>

namespace spider {

World::World(std::uint64_t seed, std::unique_ptr<CryptoProvider> crypto)
    : rng_(seed),
      crypto_(crypto ? std::move(crypto) : std::make_unique<FastCrypto>(seed)) {
  net_ = std::make_unique<SimNetwork>(queue_, rng_.fork());
  transport_ = net_.get();
  payload_digest_base_ = payload_digest_computations_total();
}

obs::Tracer& World::enable_tracing(obs::Tracer::Mode mode, std::size_t ring_capacity) {
  tracer_ = std::make_unique<obs::Tracer>(mode, ring_capacity);
  tracer_raw_ = tracer_.get();
  net_->set_tracer(tracer_raw_);
  for (const auto& [id, name] : node_names_) tracer_->name_process(id, name);
  return *tracer_;
}

void World::name_node(NodeId id, std::string name) {
  node_names_[id] = std::move(name);
  if (tracer_raw_) tracer_raw_->name_process(id, node_names_[id]);
}

Payload World::intern_state(Bytes state) {
  std::erase_if(interned_, [](const Payload& p) { return p.use_count() == 1; });
  for (const Payload& p : interned_) {
    if (p.size() == state.size() && std::equal(state.begin(), state.end(), p.data())) {
      return p;
    }
  }
  return interned_.emplace_back(std::move(state));
}

void World::refresh_platform_metrics() {
  metrics_.counter("eventqueue_scheduled").inc(
      queue_.scheduled_total() - metrics_.counter("eventqueue_scheduled").value());
  metrics_.counter("eventqueue_fired").inc(
      queue_.fired_total() - metrics_.counter("eventqueue_fired").value());
  metrics_.counter("eventqueue_cancelled").inc(
      queue_.cancelled_total() - metrics_.counter("eventqueue_cancelled").value());
  metrics_.gauge("eventqueue_pending").set(static_cast<std::int64_t>(queue_.pending()));

  const LinkStats& ls = transport_->stats();
  metrics_.gauge("net_wan_bytes").set(static_cast<std::int64_t>(ls.wan_bytes));
  metrics_.gauge("net_lan_bytes").set(static_cast<std::int64_t>(ls.lan_bytes));
  metrics_.gauge("net_wan_msgs").set(static_cast<std::int64_t>(ls.wan_msgs));
  metrics_.gauge("net_lan_msgs").set(static_cast<std::int64_t>(ls.lan_msgs));

  metrics_.gauge("payload_digest_computations")
      .set(static_cast<std::int64_t>(payload_digest_computations_total() -
                                     payload_digest_base_));
}

}  // namespace spider
