/**
 * @file
 * Shared helpers for the checkpoint/capsule serialization layer: hex
 * blob codecs for memory pages and predictor tables, and bit-exact
 * double round-tripping (doubles are stored as their IEEE-754 bit
 * pattern so a restored run reproduces byte-identical statistics).
 *
 * Components participate in checkpointing by implementing the pair
 *   void saveState(JsonWriter &w) const;  // fields of current object
 *   void loadState(const JsonValue &v);   // inverse
 * and the system-level writer (system/checkpoint.cc) composes them.
 */

#ifndef XLOOPS_COMMON_SERIALIZE_H
#define XLOOPS_COMMON_SERIALIZE_H

#include <string>
#include <vector>

#include "common/types.h"

namespace xloops {

class JsonWriter;
class JsonValue;

/** Lowercase hex encoding of @p n bytes. */
std::string hexEncode(const u8 *bytes, size_t n);

/** Inverse of hexEncode; throws FatalError on odd length / bad digit. */
std::vector<u8> hexDecode(const std::string &hex);

/** IEEE-754 bit pattern of @p v as "0x..." (exact round trip). */
std::string doubleBits(double v);

/** Inverse of doubleBits. */
double doubleFromBits(const std::string &s);

/** Parse a "0x..." or decimal u64 string; the whole string must be
 *  the number. Throws FatalError on malformed input, naming @p what
 *  (the flag or file the value came from) when it is given. */
u64 parseU64(const std::string &s, const std::string &what = "");

/** parseU64's twin for finite doubles. */
double parseDouble(const std::string &s, const std::string &what = "");

/** Emit @p values as a JSON array of u64. */
void writeU64Array(JsonWriter &w, const std::vector<u64> &values);

/** Read a JSON array of u64. */
std::vector<u64> readU64Array(const JsonValue &v);

/** CRC-32 (IEEE 802.3, the zlib polynomial) of @p n bytes, chainable
 *  via @p seed. The framing checksum of the job journal and the
 *  per-entry content checksum of the result cache — zlib.crc32 in
 *  tools/check_journal.py verifies the same values from Python. */
u32 crc32(const void *data, size_t n, u32 seed = 0);
u32 crc32(const std::string &text, u32 seed = 0);

/**
 * Crash-consistent file replacement: write @p text to a temporary
 * sibling, fsync it, rename() it over @p path, then fsync the
 * containing directory. A reader (or a daemon restarting after
 * `kill -9`) sees either the old complete file or the new complete
 * file, never a torn mix. Throws FatalError on any I/O failure (the
 * temporary is cleaned up).
 */
void atomicWriteFile(const std::string &path, const std::string &text);

/** The whole contents of @p path; throws FatalError ("cannot open
 *  <path>") when it cannot be read. */
std::string readFile(const std::string &path);

} // namespace xloops

#endif // XLOOPS_COMMON_SERIALIZE_H
