#include "common/serialize.h"

#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.h"
#include "common/log.h"

namespace xloops {

std::string
hexEncode(const u8 *bytes, size_t n)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * n);
    for (size_t i = 0; i < n; i++) {
        out += digits[bytes[i] >> 4];
        out += digits[bytes[i] & 0xf];
    }
    return out;
}

namespace {

unsigned
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f')
        return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F')
        return static_cast<unsigned>(c - 'A' + 10);
    fatal(strf("bad hex digit '", c, "'"));
}

} // namespace

std::vector<u8>
hexDecode(const std::string &hex)
{
    if (hex.size() % 2 != 0)
        fatal("hex blob has odd length");
    std::vector<u8> out(hex.size() / 2);
    for (size_t i = 0; i < out.size(); i++)
        out[i] = static_cast<u8>((hexDigit(hex[2 * i]) << 4) |
                                 hexDigit(hex[2 * i + 1]));
    return out;
}

std::string
doubleBits(double v)
{
    u64 bits;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

double
doubleFromBits(const std::string &s)
{
    const u64 bits = parseU64(s);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

namespace {

[[noreturn]] void
malformed(const char *type, const std::string &s, const std::string &what)
{
    if (what.empty())
        fatal(strf("malformed ", type, " '", s, "'"));
    fatal(strf(what, ": malformed number '", s, "'"));
}

} // namespace

u64
parseU64(const std::string &s, const std::string &what)
{
    // strtoull alone would skip leading blanks and wrap a '-'.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        malformed("u64", s, what);
    errno = 0;
    char *end = nullptr;
    const u64 v = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end != s.c_str() + s.size())
        malformed("u64", s, what);
    return v;
}

double
parseDouble(const std::string &s, const std::string &what)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        malformed("double", s, what);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
        malformed("double", s, what);
    return v;
}

void
writeU64Array(JsonWriter &w, const std::vector<u64> &values)
{
    w.beginArray();
    for (const u64 v : values)
        w.value(v);
    w.endArray();
}

std::vector<u64>
readU64Array(const JsonValue &v)
{
    std::vector<u64> out;
    out.reserve(v.array().size());
    for (const JsonValue &e : v.array())
        out.push_back(e.asU64());
    return out;
}

namespace {

/** The reflected CRC-32 table for polynomial 0xEDB88320, built once. */
const u32 *
crcTable()
{
    static const auto table = [] {
        std::array<u32, 256> t{};
        for (u32 i = 0; i < 256; i++) {
            u32 c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table.data();
}

} // namespace

u32
crc32(const void *data, size_t n, u32 seed)
{
    const u8 *p = static_cast<const u8 *>(data);
    const u32 *table = crcTable();
    u32 c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < n; i++)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

u32
crc32(const std::string &text, u32 seed)
{
    return crc32(text.data(), text.size(), seed);
}

void
atomicWriteFile(const std::string &path, const std::string &text)
{
    const std::string tmp = strf(path, ".tmp.", ::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        fatal(strf("cannot create ", tmp, ": ", std::strerror(errno)));

    size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const std::string why = std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            fatal(strf("write ", tmp, ": ", why));
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        ::unlink(tmp.c_str());
        fatal(strf("fsync ", tmp, ": ", why));
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) < 0) {
        const std::string why = std::strerror(errno);
        ::unlink(tmp.c_str());
        fatal(strf("rename ", tmp, " -> ", path, ": ", why));
    }

    // Make the rename itself durable: fsync the containing directory
    // so a crash cannot forget the new directory entry.
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirFd >= 0) {
        ::fsync(dirFd);  // best effort: some filesystems refuse
        ::close(dirFd);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace xloops
