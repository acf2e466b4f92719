// On-disk spill codec for per-shard experiment results ("CDSP" v5).
//
// The sharded runner can run far more shards than fit in memory at once:
// each shard's ExperimentResults is serialized to a compact binary file the
// moment the shard finishes, freed, and streamed back in shard order during
// the merge. The codec is a strict ByteReader/ByteWriter round-trip —
// parse(serialize(r)) == r field-for-field — so spilling cannot change
// results_digest or capture_digest: the merged evidence is bit-identical to
// the all-in-memory path (tests/test_campaign_stream.cpp).
//
// Layout: magic, version, then every field of the results in the field-list
// order of core/schema.cpp (digest order; maps in key order), then an FNV-1a
// checksum of everything before it. Spills are transient per-run artifacts,
// not an archival format: a file of any other version fails to parse, and
// there is no cross-version reader.
//
// Safety property: the checksum is verified before anything is decoded, so
// every single-bit flip, every strict byte prefix and any trailing byte
// fails with cd::ParseError — a damaged spill can never merge silently.
// Behind the checksum the reader stays structurally strict (bools, enums,
// address families and map keys reject values the writer can never emit,
// and the body must be consumed exactly), so even a re-sealed corrupted
// body either throws or decodes to visibly different results
// (tests/test_campaign_stream.cpp's bit-flip fuzz).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace cd::core {

inline constexpr std::uint32_t kSpillMagic = 0x50534443;  // "CDSP" LE
inline constexpr std::uint32_t kSpillVersion = 5;

/// Serializes `results` into the CDSP v5 byte format.
[[nodiscard]] std::vector<std::uint8_t> serialize_results(
    const ExperimentResults& results);

/// Strict inverse of serialize_results(): throws cd::ParseError on bad
/// magic/version, a checksum mismatch, any truncation, or trailing bytes.
[[nodiscard]] ExperimentResults parse_results(
    std::span<const std::uint8_t> bytes);

/// serialize_results() to a file (cd::Error on I/O failure).
void write_results(const ExperimentResults& results, const std::string& path);

/// Reads and parses a spill file written by write_results().
[[nodiscard]] ExperimentResults read_results(const std::string& path);

}  // namespace cd::core
