// Test-side reference DNS name: the one-std::string-per-label implementation
// the flat wire-form dns::DnsName replaced, kept only as the differential
// oracle for tests/test_dns_name.cpp. Same observable contract — parse and
// presentation form, case-insensitive equality and hashing, canonical
// right-to-left order, parent/prepend/suffix, the wire codec with name
// compression — in the most obvious possible form.
//
// One known difference: its compressor keys suffixes on their dotted,
// lower-cased presentation form, so a label holding a '.' collides with a
// label boundary ("a.b" as one label matches the two labels "a", "b").
// Differential encodes must use dot-free labels.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"
#include "util/str.h"

namespace cd::dns::testing {

class ReferenceDnsName {
 public:
  ReferenceDnsName() = default;

  explicit ReferenceDnsName(std::vector<std::string> labels)
      : labels_(std::move(labels)) {
    for (const auto& l : labels_) {
      CD_ENSURE(!l.empty() && l.size() <= 63, "bad DNS label");
    }
    CD_ENSURE(wire_length() <= 255, "DNS name too long");
  }

  [[nodiscard]] static std::optional<ReferenceDnsName> parse(
      std::string_view s) {
    if (s.empty()) return std::nullopt;
    if (s == ".") return ReferenceDnsName();
    if (s.back() == '.') s.remove_suffix(1);
    std::vector<std::string> labels = cd::split(s, '.');
    std::size_t wire = 1;
    for (const auto& l : labels) {
      if (l.empty() || l.size() > 63) return std::nullopt;
      wire += 1 + l.size();
    }
    if (wire > 255) return std::nullopt;
    return ReferenceDnsName(std::move(labels));
  }

  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }
  [[nodiscard]] bool is_root() const { return labels_.empty(); }

  [[nodiscard]] std::string to_string() const {
    if (labels_.empty()) return ".";
    std::string out;
    for (const auto& l : labels_) {
      out += l;
      out += '.';
    }
    return out;
  }

  [[nodiscard]] ReferenceDnsName parent() const {
    if (labels_.empty()) return ReferenceDnsName();
    return ReferenceDnsName(
        std::vector<std::string>(labels_.begin() + 1, labels_.end()));
  }

  [[nodiscard]] ReferenceDnsName prepend(std::string label) const {
    std::vector<std::string> labels;
    labels.reserve(labels_.size() + 1);
    labels.push_back(std::move(label));
    labels.insert(labels.end(), labels_.begin(), labels_.end());
    return ReferenceDnsName(std::move(labels));
  }

  [[nodiscard]] bool is_subdomain_of(const ReferenceDnsName& ancestor) const {
    if (ancestor.labels_.size() > labels_.size()) return false;
    const std::size_t skip = labels_.size() - ancestor.labels_.size();
    for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
      if (!cd::iequals(labels_[skip + i], ancestor.labels_[i])) return false;
    }
    return true;
  }

  [[nodiscard]] ReferenceDnsName suffix(std::size_t n) const {
    if (n >= labels_.size()) return *this;
    return ReferenceDnsName(std::vector<std::string>(
        labels_.end() - static_cast<std::ptrdiff_t>(n), labels_.end()));
  }

  [[nodiscard]] std::size_t wire_length() const {
    std::size_t len = 1;  // root byte
    for (const auto& l : labels_) len += 1 + l.size();
    return len;
  }

  bool operator==(const ReferenceDnsName& other) const {
    if (labels_.size() != other.labels_.size()) return false;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (!cd::iequals(labels_[i], other.labels_[i])) return false;
    }
    return true;
  }

  /// Canonical ordering (case-insensitive, right-to-left by label).
  bool operator<(const ReferenceDnsName& other) const {
    const std::size_t n = std::min(labels_.size(), other.labels_.size());
    for (std::size_t i = 1; i <= n; ++i) {
      const std::string a = cd::to_lower(labels_[labels_.size() - i]);
      const std::string b =
          cd::to_lower(other.labels_[other.labels_.size() - i]);
      if (a != b) return a < b;
    }
    return labels_.size() < other.labels_.size();
  }

 private:
  std::vector<std::string> labels_;
};

/// Maps already emitted names (dotted, lower-cased) to their offsets.
struct ReferenceNameCompressor {
  std::unordered_map<std::string, std::uint16_t> offsets;
};

inline void reference_encode_name(const ReferenceDnsName& name,
                                  cd::ByteWriter& w,
                                  ReferenceNameCompressor* comp) {
  const auto& labels = name.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (comp) {
      std::string key;
      for (std::size_t j = i; j < labels.size(); ++j) {
        key += cd::to_lower(labels[j]);
        key += '.';
      }
      const auto it = comp->offsets.find(key);
      if (it != comp->offsets.end()) {
        w.u16(static_cast<std::uint16_t>(0xC000 | it->second));
        return;
      }
      if (w.size() <= 0x3FFF) {
        comp->offsets.emplace(std::move(key),
                              static_cast<std::uint16_t>(w.size()));
      }
    }
    w.u8(static_cast<std::uint8_t>(labels[i].size()));
    w.text(labels[i]);
  }
  w.u8(0);  // root
}

inline ReferenceDnsName reference_decode_name(cd::ByteReader& r) {
  const std::span<const std::uint8_t> msg = r.whole();
  std::vector<std::string> labels;
  std::size_t pos = r.pos();
  bool jumped = false;
  std::size_t after_first_pointer = 0;
  int hops = 0;
  std::size_t total = 0;

  for (;;) {
    if (pos >= msg.size()) throw ParseError("decode_name: out of bounds");
    const std::uint8_t len = msg[pos];
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= msg.size()) throw ParseError("decode_name: bad pointer");
      if (++hops > 32) throw ParseError("decode_name: pointer loop");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | msg[pos + 1];
      if (!jumped) {
        after_first_pointer = pos + 2;
        jumped = true;
      }
      if (target >= pos) throw ParseError("decode_name: forward pointer");
      pos = target;
      continue;
    }
    if ((len & 0xC0) != 0) throw ParseError("decode_name: bad label type");
    if (len == 0) {
      ++pos;
      break;
    }
    if (pos + 1 + len > msg.size()) {
      throw ParseError("decode_name: truncated label");
    }
    total += 1 + len;
    if (total > 255) throw ParseError("decode_name: name too long");
    labels.emplace_back(reinterpret_cast<const char*>(&msg[pos + 1]), len);
    pos += 1 + len;
  }

  r.seek(jumped ? after_first_pointer : pos);
  return ReferenceDnsName(std::move(labels));
}

}  // namespace cd::dns::testing
