#include "sim/event_queue.hpp"

#include <algorithm>

namespace spider {

// 4-ary layout: children of i are 4i+1 .. 4i+4, parent is (i-1)/4. The
// wider fan-out halves the tree depth vs a binary heap, and sift moves are
// 24-byte key copies on a contiguous vector; callables never move.

void EventQueue::sift_up(std::size_t i) {
  Key e = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Key e = heap_[i];
  for (;;) {
    std::size_t best = 4 * i + 1;
    if (best >= n) break;
    std::size_t last = std::min(best + 4, n);
    for (std::size_t c = best + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_root() {
  while (!heap_.empty() && !live(heap_.front())) pop_root();
}

void EventQueue::release(std::uint32_t slot) {
  Cell& c = cells_[slot];
  c.seq = 0;
  if (++c.gen == 0) c.gen = 1;  // 0 would let slot 0 mint kInvalidEvent
  c.fn.reset();
  c.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

EventQueue::EventId EventQueue::schedule_at(Time at, Fn fn) {
  if (at < now_) at = now_;
  std::uint32_t slot = free_head_;
  if (slot != kNoFree) {
    free_head_ = cells_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(cells_.size());
    cells_.emplace_back();
  }
  Cell& c = cells_[slot];
  c.seq = next_seq_++;
  c.fn = std::move(fn);
  heap_.push_back(Key{at, c.seq, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  ++scheduled_;
  return (EventId{c.gen} << 32) | slot;
}

void EventQueue::cancel(EventId id) {
  // The generation must match a live cell: an id that already fired, was
  // cancelled or was never issued is a no-op, even if its slot was reused.
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= cells_.size()) return;
  const Cell& c = cells_[slot];
  if (c.seq == 0 || c.gen != static_cast<std::uint32_t>(id >> 32)) return;
  release(slot);
  ++cancelled_;
  maybe_compact();
}

void EventQueue::maybe_compact() {
  // Compact when more than half the heap is tombstones, so cancelled
  // entries cannot accumulate beyond 2x the live set.
  if (heap_.size() < 64 || live_ * 2 >= heap_.size()) return;
  std::erase_if(heap_, [this](const Key& k) { return !live(k); });
  // Floyd heap construction: sift down from the last parent.
  for (std::size_t i = heap_.size() / 4 + 1; i-- > 0;) {
    if (i < heap_.size()) sift_down(i);
  }
}

std::optional<Time> EventQueue::next_time() {
  drop_dead_root();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

bool EventQueue::run_next() {
  drop_dead_root();
  if (heap_.empty()) return false;
  const Key k = heap_.front();
  now_ = k.at;
  pop_root();
  // Take the callable out first: it may schedule (growing the slab) or
  // cancel its own, already-fired id (a no-op once released).
  Fn fn = std::move(cells_[k.slot].fn);
  release(k.slot);
  ++fired_;
  fn();
  return true;
}

void EventQueue::run_until(Time t) {
  for (;;) {
    drop_dead_root();
    if (heap_.empty() || heap_.front().at > t) break;
    run_next();
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
}

}  // namespace spider
