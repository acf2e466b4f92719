#include "net/special.h"

namespace cd::net {
namespace {

std::vector<Prefix> make_v4_registry() {
  // RFC 6890 IPv4 special-purpose registry (plus multicast and class E).
  const char* kEntries[] = {
      "0.0.0.0/8",          // "this network"
      "10.0.0.0/8",         // private
      "100.64.0.0/10",      // shared address space (CGN)
      "127.0.0.0/8",        // loopback
      "169.254.0.0/16",     // link local
      "172.16.0.0/12",      // private
      "192.0.0.0/24",       // IETF protocol assignments
      "192.0.2.0/24",       // TEST-NET-1
      "192.88.99.0/24",     // 6to4 relay anycast
      "192.168.0.0/16",     // private
      "198.18.0.0/15",      // benchmarking
      "198.51.100.0/24",    // TEST-NET-2
      "203.0.113.0/24",     // TEST-NET-3
      "224.0.0.0/4",        // multicast
      "240.0.0.0/4",        // reserved (includes 255.255.255.255)
  };
  std::vector<Prefix> out;
  for (const char* e : kEntries) out.push_back(Prefix::must_parse(e));
  return out;
}

std::vector<Prefix> make_v6_registry() {
  const char* kEntries[] = {
      "::/128",            // unspecified
      "::1/128",           // loopback
      "::ffff:0:0/96",     // IPv4-mapped
      "64:ff9b::/96",      // IPv4-IPv6 translation
      "100::/64",          // discard-only
      "2001::/32",         // TEREDO
      "2001:2::/48",       // benchmarking
      "2001:db8::/32",     // documentation
      "2001:10::/28",      // ORCHID
      "2002::/16",         // 6to4
      "fc00::/7",          // unique-local
      "fe80::/10",         // link-local
      "ff00::/8",          // multicast
  };
  std::vector<Prefix> out;
  for (const char* e : kEntries) out.push_back(Prefix::must_parse(e));
  return out;
}

}  // namespace

const std::vector<Prefix>& special_purpose_registry(IpFamily family) {
  static const std::vector<Prefix> v4 = make_v4_registry();
  static const std::vector<Prefix> v6 = make_v6_registry();
  return family == IpFamily::kV4 ? v4 : v6;
}

namespace {

/// A registry prefix as a masked compare: `addr` is inside iff
/// (bits & mask) == value. One AND and one compare per entry, no shifts.
struct MaskedPrefix {
  U128 mask;
  U128 value;
};

std::vector<MaskedPrefix> make_masked_registry(IpFamily family) {
  std::vector<MaskedPrefix> out;
  for (const Prefix& p : special_purpose_registry(family)) {
    const U128 ones = p.base().is_v4() ? U128{0, 0xFFFFFFFFull}
                                       : U128{~0ull, ~0ull};
    const U128 mask = ones & (ones << (p.base().width() - p.length()));
    out.push_back({mask, p.base().bits() & mask});
  }
  return out;
}

}  // namespace

bool is_special_purpose(const IpAddr& addr) {
  static const std::vector<MaskedPrefix> v4 =
      make_masked_registry(IpFamily::kV4);
  static const std::vector<MaskedPrefix> v6 =
      make_masked_registry(IpFamily::kV6);
  const U128 bits = addr.bits();
  for (const MaskedPrefix& m : addr.is_v4() ? v4 : v6) {
    if ((bits & m.mask) == m.value) return true;
  }
  return false;
}

bool is_private_v4(const IpAddr& addr) {
  static const Prefix k10 = Prefix::must_parse("10.0.0.0/8");
  static const Prefix k172 = Prefix::must_parse("172.16.0.0/12");
  static const Prefix k192 = Prefix::must_parse("192.168.0.0/16");
  return addr.is_v4() &&
         (k10.contains(addr) || k172.contains(addr) || k192.contains(addr));
}

bool is_unique_local_v6(const IpAddr& addr) {
  static const Prefix kUla = Prefix::must_parse("fc00::/7");
  return addr.is_v6() && kUla.contains(addr);
}

bool is_loopback(const IpAddr& addr) {
  static constexpr IpAddr kLoopbackV6 = IpAddr::v6(0, 1);  // ::1
  if (addr.is_v4()) return (addr.v4_bits() >> 24) == 127;  // 127.0.0.0/8
  return addr == kLoopbackV6;
}

bool is_unroutable(const IpAddr& addr) {
  return is_special_purpose(addr);
}

}  // namespace cd::net
