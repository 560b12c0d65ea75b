/**
 * @file
 * A minimal JSON value type: parse, build, serialize.
 *
 * The repo deliberately has no external JSON dependency. This one
 * small tree-shaped value type is shared by everything that writes
 * or reads JSON: fuzz repro artifacts (which must deserialize into
 * the exact same FaultPlan / RandomTesterParams in another process),
 * profiles, engine telemetry, and the trace and profile readers
 * behind `mcube_report`. The Chrome trace exporter still formats its
 * output by hand, streaming the ring without building a tree.
 *
 * Integers are stored as 64-bit (signed or unsigned) and only fall
 * back to double when the text has a fraction or exponent, so 64-bit
 * seeds and tick values survive a round trip bit-exactly. Object keys
 * keep insertion order, which keeps artifacts diffable.
 */

#ifndef MCUBE_SIM_JSON_HH
#define MCUBE_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mcube
{

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Unsigned,  //!< integral, stored as uint64
        Signed,    //!< integral and negative, stored as int64
        Double,    //!< had a fraction or exponent
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : _type(Type::Bool), _bool(b) {}
    Json(std::uint64_t v) : _type(Type::Unsigned), _uint(v) {}
    Json(std::int64_t v);
    Json(int v) : Json(static_cast<std::int64_t>(v)) {}
    Json(unsigned v) : Json(static_cast<std::uint64_t>(v)) {}
    Json(double v) : _type(Type::Double), _dbl(v) {}
    Json(const char *s) : _type(Type::String), _str(s) {}
    Json(std::string s) : _type(Type::String), _str(std::move(s)) {}

    static Json array() { Json j; j._type = Type::Array; return j; }
    static Json object() { Json j; j._type = Type::Object; return j; }

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isNumber() const
    {
        return _type == Type::Unsigned || _type == Type::Signed
            || _type == Type::Double;
    }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }
    bool isString() const { return _type == Type::String; }

    /** @{ Value accessors (zero/empty on type mismatch). */
    bool boolean() const { return _type == Type::Bool && _bool; }
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;
    const std::string &asString() const { return _str; }
    /** @} */

    /** @{ Array access. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    Json &push(Json v);
    /** @} */

    /** @{ Object access. at(key) returns a shared null for missing
     *  keys, so lookups chain safely over absent subtrees. */
    bool has(const std::string &key) const;
    const Json &at(const std::string &key) const;
    Json &set(const std::string &key, Json v);
    /** Add @p key without looking for an existing member, for keys
     *  unique by construction (set() would make a large object
     *  quadratic to build). */
    Json &append(std::string key, Json v);
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return _obj;
    }
    /** @} */

    /** @{ Typed object lookups with defaults. */
    std::uint64_t u64(const std::string &key, std::uint64_t dflt) const;
    std::int64_t i64(const std::string &key, std::int64_t dflt) const;
    double num(const std::string &key, double dflt) const;
    bool flag(const std::string &key, bool dflt) const;
    std::string str(const std::string &key,
                    const std::string &dflt = "") const;
    /** @} */

    /** Serialize; @p indent < 0 means compact single-line. */
    std::string dump(int indent = 2) const;

    /**
     * Parse @p text. On failure returns a Null value and, when
     * @p err is non-null, stores a message with the byte offset.
     */
    static Json parse(const std::string &text,
                      std::string *err = nullptr);

  private:
    void write(std::string &out, int indent, int depth) const;

    Type _type = Type::Null;
    bool _bool = false;
    std::uint64_t _uint = 0;
    std::int64_t _int = 0;
    double _dbl = 0.0;
    std::string _str;
    std::vector<Json> _arr;
    std::vector<std::pair<std::string, Json>> _obj;
};

} // namespace mcube

#endif // MCUBE_SIM_JSON_HH
