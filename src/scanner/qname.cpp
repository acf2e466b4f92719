#include "scanner/qname.h"

#include <array>
#include <charconv>

#include "dns/message.h"
#include "util/error.h"
#include "util/str.h"

namespace cd::scanner {

using cd::dns::DnsName;
using cd::net::IpAddr;

std::string query_mode_name(QueryMode mode) {
  switch (mode) {
    case QueryMode::kInitial: return "initial";
    case QueryMode::kV4Only: return "v4-only";
    case QueryMode::kV6Only: return "v6-only";
    case QueryMode::kTcp: return "tcp";
    case QueryMode::kOpen: return "open";
    case QueryMode::kCrossCheck: return "crosscheck";
    case QueryMode::kPoison: return "poison";
  }
  return "?";
}

namespace {

std::optional<std::string_view> subzone_tag(QueryMode mode) {
  switch (mode) {
    case QueryMode::kV4Only: return "v4";
    case QueryMode::kV6Only: return "v6";
    case QueryMode::kTcp: return "tcp";
    case QueryMode::kPoison: return "poison";
    case QueryMode::kInitial:
    case QueryMode::kOpen:
    case QueryMode::kCrossCheck: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<QueryMode> parse_mode_label(std::string_view label) {
  if (label.size() != 2 || label[0] != 'm') return std::nullopt;
  switch (label[1]) {
    case '0': return QueryMode::kInitial;
    case '1': return QueryMode::kV4Only;
    case '2': return QueryMode::kV6Only;
    case '3': return QueryMode::kTcp;
    case '4': return QueryMode::kOpen;
    case '5': return QueryMode::kCrossCheck;
    case '6': return QueryMode::kPoison;
    default: return std::nullopt;
  }
}

/// The encode_addr() label of `addr` written into `buf`.
std::string_view hex_addr(const IpAddr& addr, std::array<char, 32>& buf) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto put = [&buf](std::uint64_t v, std::size_t at, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      buf[at + width - 1 - i] = kDigits[(v >> (4 * i)) & 0xF];
    }
  };
  if (addr.is_v4()) {
    put(addr.v4_bits(), 0, 8);
    return {buf.data(), 8};
  }
  put(addr.bits().hi, 0, 16);
  put(addr.bits().lo, 16, 16);
  return {buf.data(), 32};
}

/// Appends `label` with its length octet.
void put_label(std::string_view label, cd::ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(label.size()));
  w.text(label);
}

void put_decimal(std::int64_t v, cd::ByteWriter& w) {
  char buf[20];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  put_label({buf, static_cast<std::size_t>(end - buf)}, w);
}

}  // namespace

QnameCodec::QnameCodec(DnsName base, std::string kw)
    : base_(std::move(base)), kw_(cd::to_lower(kw)) {
  CD_ENSURE(!kw_.empty(), "QnameCodec: empty keyword");
  CD_ENSURE(kw_ != "v4" && kw_ != "v6" && kw_ != "tcp" && kw_ != "poison",
            "QnameCodec: keyword collides with subzone tag");
  for (std::size_t m = 0; m < kQueryModeCount; ++m) {
    const auto mode = static_cast<QueryMode>(m);
    const char mode_label[] = {'m', static_cast<char>('0' + m)};
    const DnsName name =
        zone_apex(mode).prepend({std::string_view(mode_label, 2), kw_});
    tails_[m].assign(name.wire());
    tails_[m].push_back('\0');  // root
  }
}

DnsName QnameCodec::zone_apex(QueryMode mode) const {
  const auto tag = subzone_tag(mode);
  return tag ? base_.prepend(*tag) : base_;
}

std::string QnameCodec::encode_addr(const IpAddr& addr) {
  std::array<char, 32> buf;
  return std::string(hex_addr(addr, buf));
}

std::optional<IpAddr> QnameCodec::decode_addr(std::string_view label) {
  if (label.size() == 8) {
    const auto bits = cd::parse_hex_u64(label);
    if (!bits) return std::nullopt;
    return IpAddr::v4(static_cast<std::uint32_t>(*bits));
  }
  if (label.size() == 32) {
    const auto hi = cd::parse_hex_u64(label.substr(0, 16));
    const auto lo = cd::parse_hex_u64(label.substr(16));
    if (!hi || !lo) return std::nullopt;
    return IpAddr::v6(*hi, *lo);
  }
  return std::nullopt;
}

void QnameCodec::write_labels(const QnameInfo& info, cd::ByteWriter& w) const {
  const std::size_t start = w.size();
  std::array<char, 32> hex;
  put_decimal(info.ts, w);
  put_label(hex_addr(info.src, hex), w);
  put_label(hex_addr(info.dst, hex), w);
  put_decimal(info.asn, w);
  w.text(tails_.at(static_cast<std::size_t>(info.mode)));
  CD_ENSURE(w.size() - start <= cd::dns::kMaxNameWire + 1,
            "QnameCodec: name too long");
}

DnsName QnameCodec::encode(const QnameInfo& info) const {
  std::vector<std::uint8_t> wire;
  cd::ByteWriter w(wire);
  write_labels(info, w);
  cd::ByteReader r(wire, "QnameCodec::encode");
  return cd::dns::decode_name(r);
}

void QnameCodec::write_query(const QnameInfo& info, std::uint16_t id,
                             cd::ByteWriter& w) const {
  cd::dns::DnsHeader header;
  header.id = id;
  header.rd = true;
  cd::dns::write_header(header, 1, 0, 0, 0, w);
  write_labels(info, w);
  cd::dns::write_question_tail(cd::dns::RrType::kA, w);
}

std::vector<std::uint8_t> QnameCodec::query_pooled(const QnameInfo& info,
                                                   std::uint16_t id) const {
  std::vector<std::uint8_t> out = cd::BufferPool::acquire();
  cd::ByteWriter w(out);
  write_query(info, id, w);
  return out;
}

QnameCodec::Decoded QnameCodec::decode(const DnsName& qname) const {
  Decoded out;
  if (!qname.is_subdomain_of(base_)) return out;

  // Peel labels right-to-left above the base.
  const std::size_t remaining = qname.label_count() - base_.label_count();
  auto peek = [&](std::size_t from_right) -> std::optional<std::string_view> {
    if (from_right >= remaining) return std::nullopt;
    return qname.label(remaining - 1 - from_right);
  };

  std::size_t idx = 0;

  // Optional subzone tag.
  std::optional<QueryMode> zone_mode;
  if (const auto l = peek(idx)) {
    if (cd::iequals(*l, "v4")) zone_mode = QueryMode::kV4Only;
    if (cd::iequals(*l, "v6")) zone_mode = QueryMode::kV6Only;
    if (cd::iequals(*l, "tcp")) zone_mode = QueryMode::kTcp;
    if (cd::iequals(*l, "poison")) zone_mode = QueryMode::kPoison;
    if (zone_mode) ++idx;
  }

  // Keyword.
  const auto kw = peek(idx);
  if (!kw || !cd::iequals(*kw, kw_)) return out;
  out.in_experiment = true;
  out.mode = zone_mode;
  ++idx;

  // Mode label.
  if (const auto l = peek(idx)) {
    const auto mode = parse_mode_label(*l);
    if (!mode) return out;
    if (zone_mode && *zone_mode != *mode) return out;  // inconsistent name
    out.mode = mode;
    ++idx;
  } else {
    return out;
  }

  // ASN.
  if (const auto l = peek(idx)) {
    const auto asn = cd::parse_u64(*l);
    if (!asn || *asn > UINT32_MAX) return out;
    out.asn = static_cast<cd::sim::Asn>(*asn);
    ++idx;
  } else {
    return out;
  }

  // dst, then src.
  if (const auto l = peek(idx)) {
    out.dst = decode_addr(*l);
    if (!out.dst) return out;
    ++idx;
  } else {
    return out;
  }
  if (const auto l = peek(idx)) {
    out.src = decode_addr(*l);
    if (!out.src) return out;
    ++idx;
  } else {
    return out;
  }

  // Timestamp.
  if (const auto l = peek(idx)) {
    const auto ts = cd::parse_u64(*l);
    if (!ts) return out;
    out.ts = static_cast<cd::sim::SimTime>(*ts);
  }
  return out;
}

}  // namespace cd::scanner
