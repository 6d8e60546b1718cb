#include "app/kvstore.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/serde.hpp"

namespace spider {

namespace {
Bytes encode_op(KvOp op, const std::string& key, BytesView value) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  w.bytes(value);
  return std::move(w).take();
}

Bytes make_reply(bool ok, BytesView value) {
  Writer w(5 + value.size());
  w.u8(ok ? 1 : 0);
  w.bytes(value);
  return std::move(w).take();
}

// Target page size. A page splits once an insert or a longer value takes
// it past this; growth reserves only kGrowSlack beyond the need, so a
// page's capacity stays near its size.
constexpr std::size_t kPageBytes = 2048;
constexpr std::size_t kGrowSlack = 256;
// Encoded entry size beyond key and value: the two u32 length prefixes.
constexpr std::size_t kEntryOverhead = 8;

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void store_u32(std::uint8_t* p, std::size_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::string_view as_key(BytesView v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

// One encoded entry: views of its key and value, and its whole bytes.
struct Entry {
  std::string_view key;
  BytesView value;
  BytesView bytes;
};

// The entry starting at `off` of a page (pages hold well-formed entries).
Entry entry_at(const Bytes& page, std::size_t off) {
  const std::uint8_t* p = page.data() + off;
  const std::uint32_t klen = load_u32(p);
  const std::uint32_t vlen = load_u32(p + 4 + klen);
  return {std::string_view(reinterpret_cast<const char*>(p + 4), klen),
          BytesView(p + kEntryOverhead + klen, vlen),
          BytesView(p, kEntryOverhead + klen + vlen)};
}

// Decodes `n` length-prefixed (key, value) pairs; callers read `n` with
// Reader::count(kEntryOverhead), so it is bounded by the input. Callers
// decode a whole input before changing any state, so a truncated one
// leaves it untouched.
std::vector<Entry> read_entries(Reader& r, std::uint32_t n) {
  std::vector<Entry> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t* start = r.raw(0).data();
    std::string_view key = as_key(r.bytes_view());
    BytesView value = r.bytes_view();
    out.push_back({key, value, BytesView(start, value.data() + value.size())});
  }
  return out;
}

// Replaces `old_len` bytes at `at` with `new_len` bytes (contents unset).
void resize_range(Bytes& page, std::size_t at, std::size_t old_len, std::size_t new_len) {
  if (new_len < old_len) {
    page.erase(page.begin() + static_cast<std::ptrdiff_t>(at + new_len),
               page.begin() + static_cast<std::ptrdiff_t>(at + old_len));
    return;
  }
  const std::size_t grow = new_len - old_len;
  if (page.size() + grow > page.capacity()) page.reserve(page.size() + grow + kGrowSlack);
  page.insert(page.begin() + static_cast<std::ptrdiff_t>(at + old_len), grow, 0);
}
}  // namespace

Bytes kv_put(const std::string& key, BytesView value) { return encode_op(KvOp::Put, key, value); }
Bytes kv_get(const std::string& key) { return encode_op(KvOp::Get, key, {}); }
Bytes kv_del(const std::string& key) { return encode_op(KvOp::Del, key, {}); }
Bytes kv_size() { return encode_op(KvOp::Size, "", {}); }

Bytes kv_mget(const std::vector<std::string>& keys) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(KvOp::MGet));
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const std::string& k : keys) w.str(k);
  return std::move(w).take();
}

Bytes kv_mput(const std::vector<std::pair<std::string, Bytes>>& pairs) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(KvOp::MPut));
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [k, v] : pairs) {
    w.str(k);
    w.bytes(v);
  }
  return std::move(w).take();
}

KvParsedOp kv_parse_op(BytesView op, bool with_values) {
  Reader r(op);
  KvParsedOp out;
  out.kind = static_cast<KvOp>(r.u8());
  auto value = [&] {
    // bytes_view() walks past the payload without copying it.
    if (with_values) out.values.push_back(to_bytes(r.bytes_view()));
    else r.bytes_view();
  };
  switch (out.kind) {
    case KvOp::Put: {
      out.keys.push_back(r.str());
      value();
      break;
    }
    case KvOp::Get:
    case KvOp::Del: {
      out.keys.push_back(r.str());
      break;
    }
    case KvOp::Size: break;
    case KvOp::MGet: {
      std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) out.keys.push_back(r.str());
      break;
    }
    case KvOp::MPut: {
      std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        out.keys.push_back(r.str());
        value();
      }
      break;
    }
    default: throw SerdeError("unknown KV opcode");
  }
  return out;
}

KvReply kv_decode_reply(BytesView reply) {
  Reader r(reply);
  KvReply out;
  out.ok = r.u8() == 1;
  out.value = r.bytes();
  return out;
}

KvMputReply kv_decode_mput_reply(BytesView reply) {
  KvReply raw = kv_decode_reply(reply);
  Reader r(raw.value);
  KvMputReply out;
  out.ok = raw.ok;
  out.shard_seq = r.u64();
  return out;
}

KvMgetReply kv_decode_mget_reply(BytesView reply) {
  KvReply raw = kv_decode_reply(reply);
  Reader r(raw.value);
  KvMgetReply out;
  out.shard_seq = r.u64();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    KvReply e;
    e.ok = r.u8() == 1;
    e.value = r.bytes();
    out.entries.push_back(std::move(e));
  }
  return out;
}

void KvStore::append_sorted(std::vector<Page>& pages, std::string_view key, BytesView entry) {
  if (pages.empty() || pages.back().data.size() + entry.size() > kPageBytes) {
    pages.push_back({std::string(key), {}});
    pages.back().data.reserve(std::max(kPageBytes, entry.size()));
  }
  Bytes& data = pages.back().data;
  data.insert(data.end(), entry.begin(), entry.end());
}

KvStore::Slot KvStore::locate(std::string_view key) const {
  if (pages_.empty()) return {};
  // The last page whose first key is <= key; smaller keys belong to page 0.
  auto it = std::upper_bound(pages_.begin(), pages_.end(), key,
                             [](std::string_view k, const Page& page) { return k < page.first; });
  Slot slot;
  slot.page = it == pages_.begin() ? 0 : static_cast<std::size_t>(it - pages_.begin()) - 1;
  const Bytes& data = pages_[slot.page].data;
  while (slot.off < data.size()) {
    Entry e = entry_at(data, slot.off);
    const int c = e.key.compare(key);
    if (c == 0) slot.found = true;
    if (c >= 0) break;
    slot.off += e.bytes.size();
  }
  return slot;
}

std::optional<BytesView> KvStore::find(std::string_view key) const {
  Slot s = locate(key);
  if (!s.found) return std::nullopt;
  return entry_at(pages_[s.page].data, s.off).value;
}

void KvStore::put(std::string_view key, BytesView value) {
  Slot s = locate(key);
  if (pages_.empty()) pages_.emplace_back();
  Page& page = pages_[s.page];
  Bytes& data = page.data;
  const std::size_t value_at = s.off + kEntryOverhead + key.size();
  if (s.found) {
    const std::size_t old_len = entry_at(data, s.off).value.size();
    if (old_len != value.size()) {
      resize_range(data, value_at, old_len, value.size());
      store_u32(data.data() + value_at - 4, value.size());
      bytes_ = bytes_ - old_len + value.size();
    }
  } else {
    const std::size_t len = kEntryOverhead + key.size() + value.size();
    resize_range(data, s.off, 0, len);
    store_u32(data.data() + s.off, key.size());
    std::copy(key.begin(), key.end(), data.data() + s.off + 4);
    store_u32(data.data() + value_at - 4, value.size());
    if (s.off == 0) page.first = key;
    ++count_;
    bytes_ += len;
  }
  // Same-length overwrites land here directly: the value is patched in place.
  std::copy(value.begin(), value.end(), data.data() + value_at);
  if (data.size() > kPageBytes) split(s.page);
}

bool KvStore::erase(std::string_view key) {
  Slot s = locate(key);
  if (!s.found) return false;
  Page& page = pages_[s.page];
  const std::size_t len = entry_at(page.data, s.off).bytes.size();
  resize_range(page.data, s.off, len, 0);
  --count_;
  bytes_ -= len;
  if (page.data.empty()) {
    pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(s.page));
  } else if (s.off == 0) {
    page.first = entry_at(page.data, 0).key;
  }
  return true;
}

void KvStore::split(std::size_t index) {
  Bytes& data = pages_[index].data;
  // Cut at the first entry boundary at or past the middle; when that is
  // the end, cut before the last entry instead. A lone entry stays whole.
  std::size_t cut = 0;
  std::size_t prev = 0;
  while (cut < data.size() / 2) {
    prev = cut;
    cut += entry_at(data, cut).bytes.size();
  }
  if (cut == data.size()) cut = prev;
  if (cut == 0) return;
  Page tail{std::string(entry_at(data, cut).key),
            Bytes(data.begin() + static_cast<std::ptrdiff_t>(cut), data.end())};
  data.resize(cut);
  data.shrink_to_fit();
  pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(index) + 1, std::move(tail));
}

Bytes KvStore::apply(BytesView op, Mode mode) {
  Reader r(op);
  auto kind = static_cast<KvOp>(r.u8());
  const bool allow_mutation = mode == Mode::Mutate;

  switch (kind) {
    case KvOp::Put: {
      std::string_view key = as_key(r.bytes_view());
      BytesView value = r.bytes_view();
      if (!allow_mutation) return make_reply(false, {});
      put(key, value);
      ++version_;
      return make_reply(true, {});
    }
    case KvOp::Get: {
      std::optional<BytesView> value = find(as_key(r.bytes_view()));
      if (!value) return make_reply(false, {});
      return make_reply(true, *value);
    }
    case KvOp::Del: {
      std::string_view key = as_key(r.bytes_view());
      if (!allow_mutation) return make_reply(false, {});
      bool existed = erase(key);
      ++version_;
      return make_reply(existed, {});
    }
    case KvOp::Size: {
      Writer w;
      w.u64(count_);
      return make_reply(true, w.data());
    }
    case KvOp::MGet: {
      std::uint32_t n = r.u32();
      Writer w;
      // Ordered MGets report the shard's mutation count for read-your-writes
      // checks (every replica reads at the same logical position). The weak
      // fast path reports 0: replicas answering at different commit
      // positions would otherwise never produce the fe+1 byte-identical
      // replies the client quorum needs while *any* key on the shard is
      // being written.
      w.u64(mode == Mode::WeakRead ? 0 : version_);
      w.u32(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::optional<BytesView> value = find(as_key(r.bytes_view()));
        w.u8(value ? 1 : 0);
        w.bytes(value.value_or(BytesView{}));
      }
      return make_reply(true, w.data());
    }
    case KvOp::MPut: {
      const std::uint32_t n = r.count(kEntryOverhead);
      if (!allow_mutation) return make_reply(false, {});
      // Atomic within this store: a truncated MPut throws before any write.
      for (const Entry& e : read_entries(r, n)) put(e.key, e.value);
      ++version_;  // one ordered mutation, regardless of key count
      Writer w;
      w.u64(version_);
      return make_reply(true, w.data());
    }
  }
  throw SerdeError("unknown KV opcode");
}

Bytes KvStore::execute(BytesView op) { return apply(op, Mode::Mutate); }

Bytes KvStore::execute_readonly(BytesView op) const {
  // const_cast is safe: apply() in a read mode never writes.
  return const_cast<KvStore*>(this)->apply(op, Mode::OrderedRead);
}

Bytes KvStore::execute_weak(BytesView op) const {
  return const_cast<KvStore*>(this)->apply(op, Mode::WeakRead);
}

Bytes KvStore::snapshot() const {
  // The pages already hold the entry encoding in key order.
  Writer w(12 + bytes_);
  w.u64(version_);
  w.u32(static_cast<std::uint32_t>(count_));
  for (const Page& page : pages_) w.raw(page.data);
  return std::move(w).take();
}

void KvStore::restore(BytesView snapshot) {
  Reader r(snapshot);
  std::uint64_t version = r.u64();
  std::vector<Entry> entries = read_entries(r, r.count(kEntryOverhead));
  r.expect_done();
  // Our own snapshots are strictly ordered. Any other order is sorted here,
  // and of duplicate keys the later entry wins.
  auto by_key = [](const Entry& a, const Entry& b) { return a.key < b.key; };
  auto not_ascending = [](const Entry& a, const Entry& b) { return a.key >= b.key; };
  if (std::adjacent_find(entries.begin(), entries.end(), not_ascending) != entries.end()) {
    std::stable_sort(entries.begin(), entries.end(), by_key);
    std::vector<Entry> unique;
    for (const Entry& e : entries) {
      if (!unique.empty() && unique.back().key == e.key) unique.back() = e;
      else unique.push_back(e);
    }
    entries = std::move(unique);
  }
  std::vector<Page> pages;
  std::size_t bytes = 0;
  for (const Entry& e : entries) {
    append_sorted(pages, e.key, e.bytes);
    bytes += e.bytes.size();
  }
  if (!pages.empty()) pages.back().data.shrink_to_fit();
  pages_ = std::move(pages);
  count_ = entries.size();
  bytes_ = bytes;
  version_ = version;
}

std::unique_ptr<Application> KvStore::clone_empty() const { return std::make_unique<KvStore>(); }

std::vector<std::string> KvStore::op_keys(BytesView op) const {
  try {
    return kv_parse_op(op, /*with_values=*/false).keys;
  } catch (const SerdeError&) {
    return {};  // not a KV op (system op, garbage): not key-addressed
  }
}

Bytes KvStore::extract_keys(const std::function<bool(std::string_view)>& moved) {
  // Entries are visited in key order, so the extracted byte string is
  // identical across replicas in the same state — it must be, because fe+1
  // replicas reply with it and the migration driver needs matching replies.
  std::vector<BytesView> out;
  std::size_t out_bytes = 0;
  std::vector<Page> kept;
  for (const Page& page : pages_) {
    for (std::size_t off = 0; off < page.data.size();) {
      Entry e = entry_at(page.data, off);
      off += e.bytes.size();
      if (moved(e.key)) {
        out.push_back(e.bytes);
        out_bytes += e.bytes.size();
      } else {
        append_sorted(kept, e.key, e.bytes);
      }
    }
  }
  Writer w(4 + out_bytes);
  w.u32(static_cast<std::uint32_t>(out.size()));
  for (BytesView e : out) w.raw(e);
  if (!kept.empty()) kept.back().data.shrink_to_fit();
  pages_ = std::move(kept);
  count_ -= out.size();
  bytes_ -= out_bytes;
  ++version_;  // the cut is a mutation: shard_seq must advance deterministically
  return std::move(w).take();
}

void KvStore::absorb_keys(BytesView state) {
  Reader r(state);
  std::vector<Entry> entries = read_entries(r, r.count(kEntryOverhead));
  r.expect_done();
  for (const Entry& e : entries) put(e.key, e.value);
  ++version_;
}

}  // namespace spider
