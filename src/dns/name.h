// DNS domain names held in RFC 1035 wire form: one buffer per name.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace cd::dns {

class DnsName;

/// Most octets a name's wire labels take (255 less the root byte), and so
/// the most labels it holds (each takes at least two).
inline constexpr std::size_t kMaxNameWire = 254;
inline constexpr std::size_t kMaxLabels = kMaxNameWire / 2;

/// A borrowed name: length-prefixed wire labels (no root byte) plus their
/// case-folded hash. A DnsName converts to one for free, and a NameSuffixes
/// table yields one per ancestor, so DnsName-keyed containers (through the
/// transparent DnsNameHash / DnsNameEq / DnsNameLess) look ancestors up
/// without building them.
struct NameRef {
  std::string_view wire;
  std::size_t hash = 0;

  NameRef(std::string_view w, std::size_t h) : wire(w), hash(h) {}
  NameRef(const DnsName& name);  // NOLINT: implicit by design
};

/// A fully-qualified DNS name: its labels in wire form (each a length octet
/// then its bytes, original case kept, root byte omitted), the label count
/// and a case-folded hash computed once when the name is built. Comparison
/// and hashing are case-insensitive per RFC 1035 §2.3.3.
class DnsName {
 public:
  /// The root name ".".
  DnsName();

  /// Parses dotted presentation form ("a.b.example.org", optional trailing
  /// dot; "." is the root). Returns nullopt for invalid names (empty labels,
  /// label > 63 octets, total > 255 octets).
  [[nodiscard]] static std::optional<DnsName> parse(std::string_view s);
  [[nodiscard]] static DnsName must_parse(std::string_view s);

  [[nodiscard]] std::size_t label_count() const { return count_; }
  [[nodiscard]] bool is_root() const { return count_ == 0; }
  /// Label `i` counted from the left (0 = leftmost), in its original case.
  [[nodiscard]] std::string_view label(std::size_t i) const;
  /// The length-prefixed labels without the root byte ("" for the root).
  [[nodiscard]] std::string_view wire() const { return wire_; }
  [[nodiscard]] std::size_t hash() const { return hash_; }

  /// Presentation form with trailing dot ("a.example.org.", root is ".").
  [[nodiscard]] std::string to_string() const;

  /// The name with the leftmost label removed; parent of root is root.
  [[nodiscard]] DnsName parent() const;

  /// New name with `label` prepended on the left.
  [[nodiscard]] DnsName prepend(std::string_view label) const;
  /// New name with `labels` (leftmost first) prepended on the left, built
  /// in one buffer.
  [[nodiscard]] DnsName prepend(
      std::initializer_list<std::string_view> labels) const;

  /// True if this name equals `ancestor` or is underneath it.
  [[nodiscard]] bool is_subdomain_of(const DnsName& ancestor) const;

  /// The `n` rightmost labels as a name (n clamped to label_count()).
  [[nodiscard]] DnsName suffix(std::size_t n) const;

  /// Total wire length in octets (labels + length bytes + root byte).
  [[nodiscard]] std::size_t wire_length() const { return wire_.size() + 1; }

  bool operator==(const DnsName& other) const;
  bool operator!=(const DnsName& other) const { return !(*this == other); }
  /// Canonical ordering (case-insensitive, right-to-left by label).
  bool operator<(const DnsName& other) const;

 private:
  friend DnsName decode_name(cd::ByteReader& r);

  /// Adopts `count` validated wire labels and hashes them.
  DnsName(std::string wire, std::size_t count);

  std::string wire_;
  std::size_t hash_;
  std::uint8_t count_ = 0;
};

inline NameRef::NameRef(const DnsName& name)
    : wire(name.wire()), hash(name.hash()) {}

/// Case-insensitive equality of two names in wire form (the length octets
/// keep "a.b" as one label apart from "a" + "b").
[[nodiscard]] bool wire_equal(NameRef a, NameRef b);
/// Canonical DNS order of two names in wire form: labels compared right to
/// left, case-folded, as unsigned bytes; a proper suffix sorts first.
[[nodiscard]] bool canonical_less(NameRef a, NameRef b);

struct DnsNameHash {
  using is_transparent = void;
  std::size_t operator()(NameRef n) const noexcept { return n.hash; }
};
struct DnsNameEq {
  using is_transparent = void;
  bool operator()(NameRef a, NameRef b) const { return wire_equal(a, b); }
};
struct DnsNameLess {
  using is_transparent = void;
  bool operator()(NameRef a, NameRef b) const { return canonical_less(a, b); }
};

/// Writes `label` followed by `name`'s labels into `buf` and returns that
/// name, borrowed from `buf`: a one-label-longer lookup key built without
/// an allocation.
[[nodiscard]] NameRef prepend_label(std::string_view label, NameRef name,
                                    std::span<char> buf);

/// Every suffix of one name as a NameRef, from one right-to-left pass over
/// its bytes: `[n]` is the n-label suffix (0 = root, label_count() = the
/// name itself). Borrows the name, which must outlive the table.
class NameSuffixes {
 public:
  explicit NameSuffixes(const DnsName& name);

  [[nodiscard]] std::size_t label_count() const { return count_; }
  [[nodiscard]] NameRef operator[](std::size_t n) const {
    const std::size_t at = start_[count_ - n];
    return {wire_.substr(at), hash_[count_ - n]};
  }

 private:
  std::string_view wire_;
  std::size_t count_ = 0;
  // Indexed by leftmost label: start_[i] is where label i begins, hash_[i]
  // the hash of the suffix from it; entry count_ is the root.
  std::array<std::uint8_t, kMaxLabels + 1> start_;
  std::array<std::size_t, kMaxLabels + 1> hash_;
};

/// Compression context threaded through message encoding: the wire-form
/// suffixes already emitted, keyed on their case-folded hash, so later names
/// can point at them. Reusable: clear() keeps the capacity.
class NameCompressor {
 public:
  void clear();

 private:
  friend void encode_name(const DnsName& name, cd::ByteWriter& w,
                          NameCompressor* comp);

  struct Entry {
    std::size_t hash;
    std::uint32_t at;      // suffix bytes in arena_
    std::uint16_t offset;  // where the suffix starts in the message
    std::uint8_t len;
  };

  [[nodiscard]] std::optional<std::uint16_t> find(NameRef suffix) const;
  void add(NameRef suffix, std::uint32_t at, std::uint16_t offset);

  std::vector<Entry> entries_;
  // Open-addressed index over entries_: 0 = empty, else entry index + 1.
  std::vector<std::uint16_t> slots_;
  // The wire bytes of every name that recorded a suffix, for the equality
  // check behind a hash match.
  std::string arena_;
};

/// Appends the wire encoding of `name` through `w`, compressing against
/// (and updating) `comp` when provided. Compression offsets are relative to
/// the writer's base, so `w` must have been constructed at the start of the
/// DNS message.
void encode_name(const DnsName& name, cd::ByteWriter& w, NameCompressor* comp);

/// Convenience shim over the ByteWriter form.
void encode_name(const DnsName& name, std::vector<std::uint8_t>& out,
                 NameCompressor* comp);

/// Decodes a (possibly compressed) name at the reader's cursor, leaving the
/// cursor past the name's in-place bytes. The reader must span the whole DNS
/// message (compression pointers are message-relative). Throws cd::ParseError
/// on malformed input, including pointer loops.
[[nodiscard]] DnsName decode_name(cd::ByteReader& r);

/// Convenience shim over the ByteReader form.
[[nodiscard]] DnsName decode_name(std::span<const std::uint8_t> msg,
                                  std::size_t& offset);

}  // namespace cd::dns
