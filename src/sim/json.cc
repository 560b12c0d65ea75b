#include "sim/json.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mcube
{

namespace
{

const Json nullJson{};

} // namespace

Json::Json(std::int64_t v)
{
    if (v >= 0) {
        _type = Type::Unsigned;
        _uint = static_cast<std::uint64_t>(v);
    } else {
        _type = Type::Signed;
        _int = v;
    }
}

std::uint64_t
Json::asU64() const
{
    switch (_type) {
      case Type::Unsigned:
        return _uint;
      case Type::Signed:
        return _int < 0 ? 0 : static_cast<std::uint64_t>(_int);
      case Type::Double:
        return _dbl < 0 ? 0 : static_cast<std::uint64_t>(_dbl);
      default:
        return 0;
    }
}

std::int64_t
Json::asI64() const
{
    switch (_type) {
      case Type::Unsigned:
        return static_cast<std::int64_t>(_uint);
      case Type::Signed:
        return _int;
      case Type::Double:
        return static_cast<std::int64_t>(_dbl);
      default:
        return 0;
    }
}

double
Json::asDouble() const
{
    switch (_type) {
      case Type::Unsigned:
        return static_cast<double>(_uint);
      case Type::Signed:
        return static_cast<double>(_int);
      case Type::Double:
        return _dbl;
      default:
        return 0.0;
    }
}

std::size_t
Json::size() const
{
    if (_type == Type::Array)
        return _arr.size();
    if (_type == Type::Object)
        return _obj.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    if (_type != Type::Array || i >= _arr.size())
        return nullJson;
    return _arr[i];
}

Json &
Json::push(Json v)
{
    _type = Type::Array;
    _arr.push_back(std::move(v));
    return *this;
}

bool
Json::has(const std::string &key) const
{
    for (const auto &[k, v] : _obj)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    for (const auto &[k, v] : _obj)
        if (k == key)
            return v;
    return nullJson;
}

Json &
Json::set(const std::string &key, Json v)
{
    _type = Type::Object;
    for (auto &[k, old] : _obj) {
        if (k == key) {
            old = std::move(v);
            return *this;
        }
    }
    _obj.emplace_back(key, std::move(v));
    return *this;
}

Json &
Json::append(std::string key, Json v)
{
    _type = Type::Object;
    _obj.emplace_back(std::move(key), std::move(v));
    return *this;
}

std::uint64_t
Json::u64(const std::string &key, std::uint64_t dflt) const
{
    const Json &v = at(key);
    return v.isNumber() ? v.asU64() : dflt;
}

std::int64_t
Json::i64(const std::string &key, std::int64_t dflt) const
{
    const Json &v = at(key);
    return v.isNumber() ? v.asI64() : dflt;
}

double
Json::num(const std::string &key, double dflt) const
{
    const Json &v = at(key);
    return v.isNumber() ? v.asDouble() : dflt;
}

bool
Json::flag(const std::string &key, bool dflt) const
{
    const Json &v = at(key);
    return v.type() == Type::Bool ? v.boolean() : dflt;
}

std::string
Json::str(const std::string &key, const std::string &dflt) const
{
    const Json &v = at(key);
    return v.isString() ? v.asString() : dflt;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace
{

void
writeEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::write(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    char buf[40];
    switch (_type) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += _bool ? "true" : "false";
        break;
      case Type::Unsigned:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, _uint);
        out += buf;
        break;
      case Type::Signed:
        std::snprintf(buf, sizeof(buf), "%" PRId64, _int);
        out += buf;
        break;
      case Type::Double:
        if (std::isfinite(_dbl)) {
            // %.17g guarantees an exact double round trip.
            std::snprintf(buf, sizeof(buf), "%.17g", _dbl);
            out += buf;
        } else {
            out += "null";
        }
        break;
      case Type::String:
        writeEscaped(out, _str);
        break;
      case Type::Array:
        if (_arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < _arr.size(); ++i) {
            if (i)
                out += indent < 0 ? "," : ", ";
            _arr[i].write(out, -1, depth + 1);  // arrays stay inline
        }
        out += ']';
        break;
      case Type::Object:
        if (_obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < _obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            if (indent < 0 && i)
                out += ' ';
            writeEscaped(out, _obj[i].first);
            out += indent < 0 ? ":" : ": ";
            _obj[i].second.write(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    write(out, indent, 0);
    if (indent >= 0)
        out += '\n';
    return out;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

namespace
{

struct Parser
{
    /**
     * Nesting cap. parseValue() recurses per '['/'{'; without a
     * limit a *corrupt or adversarial* artifact of a few kilobytes
     * of open brackets overflows the stack — undefined behaviour in
     * the exact code path that is supposed to reject bad input.
     * Real artifacts nest ~4 deep; 64 is generous.
     */
    static constexpr int kMaxDepth = 64;

    const std::string &text;
    std::size_t pos = 0;
    std::string err;
    int depth = 0;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size()
               && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("bad escape");
            char e = text[pos++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("bad \\u escape");
                unsigned v = static_cast<unsigned>(std::strtoul(
                    text.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // Artifacts only contain ASCII; encode low code
                // points directly, anything else as '?'.
                out += v < 0x80 ? static_cast<char>(v) : '?';
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;  // closing quote
        return true;
    }

    bool
    parseNumber(Json &out)
    {
        std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool integral = true;
        while (pos < text.size()) {
            char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-'
                       || c == '+') {
                if (c == '.' || c == 'e' || c == 'E')
                    integral = false;
                ++pos;
            } else {
                break;
            }
        }
        std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("bad number");
        if (integral) {
            if (tok[0] == '-')
                out = Json(static_cast<std::int64_t>(
                    std::strtoll(tok.c_str(), nullptr, 10)));
            else
                out = Json(static_cast<std::uint64_t>(
                    std::strtoull(tok.c_str(), nullptr, 10)));
        } else {
            out = Json(std::strtod(tok.c_str(), nullptr));
        }
        return true;
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if ((c == '{' || c == '[') && depth >= kMaxDepth)
            return fail("nesting too deep");
        DepthGuard guard(*this, c == '{' || c == '[');
        if (c == '{') {
            ++pos;
            out = Json::object();
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                Json v;
                if (!parseValue(v))
                    return false;
                out.set(key, std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = Json::array();
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                Json v;
                if (!parseValue(v))
                    return false;
                out.push(std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = Json(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = Json(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = Json();
            return true;
        }
        return parseNumber(out);
    }

    struct DepthGuard
    {
        DepthGuard(Parser &p, bool counts) : p(p), counts(counts)
        {
            if (counts)
                ++p.depth;
        }
        ~DepthGuard()
        {
            if (counts)
                --p.depth;
        }
        Parser &p;
        bool counts;
    };
};

} // namespace

Json
Json::parse(const std::string &text, std::string *err)
{
    Parser p{text, 0, {}};
    Json out;
    if (!p.parseValue(out)) {
        if (err)
            *err = p.err;
        return Json();
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing content at offset "
                 + std::to_string(p.pos);
        return Json();
    }
    if (err)
        err->clear();
    return out;
}

} // namespace mcube
