#include "util/json_reader.hpp"

#include <cmath>
#include <cstdlib>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::json {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    parse(Value* out)
    {
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

    std::size_t pos() const { return pos_; }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value* out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{': return parseObject(out);
        case '[': return parseArray(out);
        case '"':
            out->type = Value::Type::String;
            return parseString(&out->string);
        case 't':
            out->type = Value::Type::Bool;
            out->boolean = true;
            return literal("true");
        case 'f':
            out->type = Value::Type::Bool;
            out->boolean = false;
            return literal("false");
        case 'n':
            out->type = Value::Type::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    bool
    parseObject(Value* out)
    {
        out->type = Value::Type::Object;
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            Value v;
            if (!parseValue(&v))
                return false;
            out->members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseArray(Value* out)
    {
        out->type = Value::Type::Array;
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            Value v;
            if (!parseValue(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            // RFC 8259: control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': *out += '"'; break;
            case '\\': *out += '\\'; break;
            case '/': *out += '/'; break;
            case 'n': *out += '\n'; break;
            case 'r': *out += '\r'; break;
            case 't': *out += '\t'; break;
            case 'b': *out += '\b'; break;
            case 'f': *out += '\f'; break;
            case 'u': {
                if (text_.size() - pos_ < 4)
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // Our writers only emit \u00XX control escapes; pass
                // anything in the BMP through as UTF-8.
                if (code < 0x80) {
                    *out += static_cast<char>(code);
                } else if (code < 0x800) {
                    *out += static_cast<char>(0xC0 | (code >> 6));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (code >> 12));
                    *out += static_cast<char>(0x80 |
                                              ((code >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return false;
            }
        }
        return consume('"');
    }

    /** Consume a run of digits; false if there is none. */
    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    /** RFC 8259: [-] (0 | [1-9][0-9]*) [. [0-9]+] [(e|E) [+|-] [0-9]+] */
    bool
    parseNumber(Value* out)
    {
        const std::size_t start = pos_;
        consume('-');
        if (consume('0')) {
            // No leading zeros: "028" is not a number.
        } else if (pos_ >= text_.size() || text_[pos_] < '1' ||
                   text_[pos_] > '9' || !digits()) {
            return false;
        }
        if (consume('.') && !digits())
            return false;
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return false;
        }
        const std::string tok(text_.substr(start, pos_ - start));
        char* rest = nullptr;
        out->type = Value::Type::Number;
        out->number = std::strtod(tok.c_str(), &rest);
        return rest != nullptr && *rest == '\0';
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

const char*
typeName(Value::Type t)
{
    switch (t) {
    case Value::Type::Null: return "null";
    case Value::Type::Bool: return "bool";
    case Value::Type::Number: return "number";
    case Value::Type::String: return "string";
    case Value::Type::Array: return "array";
    case Value::Type::Object: return "object";
    }
    return "?";
}

} // namespace

const Value*
Value::get(std::string_view key) const
{
    for (const auto& [k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

const Value&
Value::require(std::string_view key, Type t,
               const std::string& what) const
{
    const Value* v = get(key);
    fatalIf(v == nullptr, ErrorCode::CorruptInput,
            what + ": missing required member \"" + std::string(key) +
                "\"");
    fatalIf(v->type != t, ErrorCode::CorruptInput,
            what + ": member \"" + std::string(key) + "\" is not a " +
                typeName(t));
    return *v;
}

void
Value::requireOnly(std::initializer_list<std::string_view> keys,
                   const std::string& what) const
{
    for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string& k = members[i].first;
        bool known = false;
        for (const auto key : keys)
            known = known || k == key;
        fatalIf(!known, ErrorCode::CorruptInput,
                what + ": unexpected member \"" + k + "\"");
        for (std::size_t j = 0; j < i; ++j)
            fatalIf(members[j].first == k, ErrorCode::CorruptInput,
                    what + ": repeated member \"" + k + "\"");
    }
}

double
wholeNumber(const Value& n, double lo, double hi, std::string_view name,
            const std::string& what)
{
    fatalIf(!n.isNumber() || !(n.number >= lo && n.number <= hi) ||
                n.number != std::trunc(n.number),
            ErrorCode::CorruptInput,
            what + ": " + std::string(name) +
                " must be a whole number in [" + formatDouble(lo) +
                ", " + formatDouble(hi) + "]");
    return n.number;
}

Value
parseJson(std::string_view text, const std::string& what)
{
    Parser p(text);
    Value out;
    fatalIf(!p.parse(&out), ErrorCode::CorruptInput,
            what + ": malformed JSON near byte " +
                std::to_string(p.pos()));
    return out;
}

bool
tryParseJson(std::string_view text, Value* out)
{
    *out = Value{};
    return Parser(text).parse(out);
}

} // namespace mrp::json
