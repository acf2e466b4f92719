#include "dns/name.h"

#include <algorithm>

#include "util/error.h"

namespace cd::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;

// FNV-1a, fed the case-folded wire bytes from the right end leftward, so a
// suffix's hash is a prefix of the walk and prepending extends it.
constexpr std::size_t kHashSeed = 0xCBF29CE484222325ULL;
constexpr std::size_t kHashPrime = 0x100000001B3ULL;

unsigned char fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return (u >= 'A' && u <= 'Z') ? static_cast<unsigned char>(u + 32) : u;
}

/// Extends `h`, the hash of the bytes after `bytes`, leftward over `bytes`.
std::size_t hash_left(std::size_t h, std::string_view bytes) {
  for (std::size_t i = bytes.size(); i-- > 0;) {
    h ^= fold(bytes[i]);
    h *= kHashPrime;
  }
  return h;
}

bool fold_equal(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

/// Home slot of `hash` in a power-of-two table: folds the high half in, since
/// FNV's low bits see only the low bits of each byte.
std::size_t slot_of(std::size_t hash, std::size_t mask) {
  return (hash ^ (hash >> 32)) & mask;
}

std::uint8_t label_len(std::string_view wire, std::size_t at) {
  return static_cast<std::uint8_t>(wire[at]);
}

/// Writes where each label of `wire` begins; returns the label count.
std::size_t label_starts(std::string_view wire, std::uint8_t* starts) {
  std::size_t n = 0;
  for (std::size_t at = 0; at < wire.size(); at += 1 + label_len(wire, at)) {
    starts[n++] = static_cast<std::uint8_t>(at);
  }
  return n;
}

/// Offset of label `i` (wire.size() when i is the label count).
std::size_t skip_labels(std::string_view wire, std::size_t i) {
  std::size_t at = 0;
  for (; i > 0; --i) at += 1 + label_len(wire, at);
  return at;
}

}  // namespace

DnsName::DnsName() : hash_(kHashSeed) {}

DnsName::DnsName(std::string wire, std::size_t count)
    : wire_(std::move(wire)),
      hash_(hash_left(kHashSeed, wire_)),
      count_(static_cast<std::uint8_t>(count)) {}

std::optional<DnsName> DnsName::parse(std::string_view s) {
  if (s.empty()) return std::nullopt;
  if (s == ".") return DnsName();
  if (s.back() == '.') s.remove_suffix(1);
  if (s.size() + 1 > kMaxNameWire) return std::nullopt;
  std::string wire;
  wire.reserve(s.size() + 1);
  std::size_t count = 0;
  for (;;) {
    const std::size_t dot = s.find('.');
    const std::string_view l = s.substr(0, dot);
    if (l.empty() || l.size() > kMaxLabel) return std::nullopt;
    wire += static_cast<char>(l.size());
    wire += l;
    ++count;
    if (dot == std::string_view::npos) break;
    s.remove_prefix(dot + 1);
  }
  return DnsName(std::move(wire), count);
}

DnsName DnsName::must_parse(std::string_view s) {
  const auto n = parse(s);
  if (!n) throw ParseError("bad DNS name: " + std::string(s));
  return *n;
}

std::string_view DnsName::label(std::size_t i) const {
  CD_ENSURE(i < count_, "DnsName::label: index out of range");
  const std::size_t at = skip_labels(wire_, i);
  return std::string_view(wire_).substr(at + 1, label_len(wire_, at));
}

std::string DnsName::to_string() const {
  if (is_root()) return ".";
  std::string out;
  out.reserve(wire_.size());
  for (std::size_t at = 0; at < wire_.size(); at += 1 + label_len(wire_, at)) {
    out.append(wire_, at + 1, label_len(wire_, at));
    out += '.';
  }
  return out;
}

DnsName DnsName::parent() const { return suffix(count_ == 0 ? 0 : count_ - 1); }

DnsName DnsName::prepend(std::string_view label) const {
  return prepend({label});
}

DnsName DnsName::prepend(std::initializer_list<std::string_view> labels) const {
  std::size_t len = wire_.size();
  for (const std::string_view l : labels) {
    CD_ENSURE(!l.empty() && l.size() <= kMaxLabel, "bad DNS label");
    len += 1 + l.size();
  }
  CD_ENSURE(len <= kMaxNameWire, "DNS name too long");
  std::string wire;
  wire.reserve(len);
  for (const std::string_view l : labels) {
    wire += static_cast<char>(l.size());
    wire += l;
  }
  wire += wire_;
  return DnsName(std::move(wire), count_ + labels.size());
}

bool DnsName::is_subdomain_of(const DnsName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  const std::size_t at = skip_labels(wire_, count_ - ancestor.count_);
  return fold_equal(std::string_view(wire_).substr(at), ancestor.wire_);
}

DnsName DnsName::suffix(std::size_t n) const {
  if (n >= count_) return *this;
  return DnsName(wire_.substr(skip_labels(wire_, count_ - n)), n);
}

bool DnsName::operator==(const DnsName& other) const {
  return count_ == other.count_ && wire_equal(*this, other);
}

bool DnsName::operator<(const DnsName& other) const {
  return canonical_less(*this, other);
}

bool wire_equal(NameRef a, NameRef b) {
  return a.hash == b.hash && fold_equal(a.wire, b.wire);
}

bool canonical_less(NameRef a, NameRef b) {
  std::uint8_t as[kMaxLabels];
  std::uint8_t bs[kMaxLabels];
  const std::size_t an = label_starts(a.wire, as);
  const std::size_t bn = label_starts(b.wire, bs);
  for (std::size_t i = 1; i <= std::min(an, bn); ++i) {
    const std::size_t ai = as[an - i];
    const std::size_t bi = bs[bn - i];
    const std::string_view la = a.wire.substr(ai + 1, label_len(a.wire, ai));
    const std::string_view lb = b.wire.substr(bi + 1, label_len(b.wire, bi));
    for (std::size_t k = 0; k < std::min(la.size(), lb.size()); ++k) {
      const unsigned char ca = fold(la[k]);
      const unsigned char cb = fold(lb[k]);
      if (ca != cb) return ca < cb;
    }
    if (la.size() != lb.size()) return la.size() < lb.size();
  }
  return an < bn;
}

NameRef prepend_label(std::string_view label, NameRef name,
                      std::span<char> buf) {
  CD_ENSURE(!label.empty() && label.size() <= kMaxLabel, "bad DNS label");
  const std::size_t len = 1 + label.size() + name.wire.size();
  CD_ENSURE(len <= buf.size() && len <= kMaxNameWire, "DNS name too long");
  buf[0] = static_cast<char>(label.size());
  std::copy(label.begin(), label.end(), buf.begin() + 1);
  std::copy(name.wire.begin(), name.wire.end(),
            buf.begin() + 1 + static_cast<std::ptrdiff_t>(label.size()));
  const std::string_view wire(buf.data(), len);
  return {wire, hash_left(name.hash, wire.substr(0, 1 + label.size()))};
}

NameSuffixes::NameSuffixes(const DnsName& name)
    : wire_(name.wire()) {
  count_ = label_starts(wire_, start_.data());
  start_[count_] = static_cast<std::uint8_t>(wire_.size());
  hash_[count_] = kHashSeed;
  for (std::size_t i = count_; i > 0; --i) {
    hash_[i - 1] = hash_left(
        hash_[i], wire_.substr(start_[i - 1], start_[i] - start_[i - 1]));
  }
}

void NameCompressor::clear() {
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  arena_.clear();
}

std::optional<std::uint16_t> NameCompressor::find(NameRef suffix) const {
  if (slots_.empty()) return std::nullopt;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(suffix.hash, mask); slots_[i] != 0;
       i = (i + 1) & mask) {
    const Entry& e = entries_[slots_[i] - 1];
    if (e.hash == suffix.hash &&
        fold_equal(std::string_view(arena_).substr(e.at, e.len),
                   suffix.wire)) {
      return e.offset;
    }
  }
  return std::nullopt;
}

void NameCompressor::add(NameRef suffix, std::uint32_t at,
                         std::uint16_t offset) {
  entries_.push_back(Entry{suffix.hash, at, offset,
                           static_cast<std::uint8_t>(suffix.wire.size())});
  const auto insert = [this](std::size_t index) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(entries_[index].hash, mask);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint16_t>(index + 1);
  };
  if (entries_.size() * 2 > slots_.size()) {
    // Keep the load at most one half; offsets stop at 0x3FFF, so the entry
    // count (one per emitted label of two or more octets) fits the index.
    slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), 0);
    for (std::size_t k = 0; k < entries_.size(); ++k) insert(k);
  } else {
    insert(entries_.size() - 1);
  }
}

void encode_name(const DnsName& name, cd::ByteWriter& w,
                 NameCompressor* comp) {
  const std::string_view wire = name.wire();
  if (!comp) {
    w.text(wire);
    w.u8(0);  // root
    return;
  }
  const NameSuffixes suffixes(name);
  std::optional<std::uint32_t> stashed;  // where `wire` sits in the arena
  for (std::size_t k = suffixes.label_count(); k > 0; --k) {
    const NameRef s = suffixes[k];
    // Can we point at an already-encoded suffix starting here?
    if (const auto offset = comp->find(s)) {
      w.u16(static_cast<std::uint16_t>(0xC000 | *offset));
      return;
    }
    // Remember this suffix's offset if it is pointer-representable.
    if (w.size() <= 0x3FFF) {
      if (!stashed) {
        stashed = static_cast<std::uint32_t>(comp->arena_.size());
        comp->arena_ += wire;
      }
      comp->add(s,
                *stashed + static_cast<std::uint32_t>(wire.size() -
                                                      s.wire.size()),
                static_cast<std::uint16_t>(w.size()));
    }
    w.text(s.wire.substr(0, 1 + label_len(s.wire, 0)));
  }
  w.u8(0);  // root
}

void encode_name(const DnsName& name, std::vector<std::uint8_t>& out,
                 NameCompressor* comp) {
  // Base the writer at offset 0: legacy callers treat `out` as the whole
  // message, so compression offsets must be absolute vector offsets.
  cd::ByteWriter w(out, 0);
  encode_name(name, w, comp);
}

DnsName decode_name(cd::ByteReader& r) {
  const std::span<const std::uint8_t> msg = r.whole();
  char wire[kMaxNameWire];
  std::size_t len = 0;
  std::size_t count = 0;
  std::size_t pos = r.pos();
  bool jumped = false;
  std::size_t after_first_pointer = 0;
  int hops = 0;

  for (;;) {
    if (pos >= msg.size()) throw ParseError("decode_name: out of bounds");
    const std::uint8_t l = msg[pos];
    if ((l & 0xC0) == 0xC0) {
      if (pos + 1 >= msg.size()) throw ParseError("decode_name: bad pointer");
      if (++hops > 32) throw ParseError("decode_name: pointer loop");
      const std::size_t target =
          (static_cast<std::size_t>(l & 0x3F) << 8) | msg[pos + 1];
      if (!jumped) {
        after_first_pointer = pos + 2;
        jumped = true;
      }
      if (target >= pos) throw ParseError("decode_name: forward pointer");
      pos = target;
      continue;
    }
    if ((l & 0xC0) != 0) throw ParseError("decode_name: bad label type");
    if (l == 0) {
      ++pos;
      break;
    }
    if (pos + 1 + l > msg.size()) {
      throw ParseError("decode_name: truncated label");
    }
    if (len + 1 + l > kMaxNameWire) {
      throw ParseError("decode_name: name too long");
    }
    std::copy_n(&msg[pos], 1 + l, wire + len);
    len += 1 + l;
    ++count;
    pos += 1 + l;
  }

  r.seek(jumped ? after_first_pointer : pos);
  return DnsName(std::string(wire, len), count);
}

DnsName decode_name(std::span<const std::uint8_t> msg, std::size_t& offset) {
  cd::ByteReader r(msg, "decode_name");
  r.seek(offset);
  DnsName name = decode_name(r);
  offset = r.pos();
  return name;
}

}  // namespace cd::dns
