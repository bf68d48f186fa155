// Wire encoding (CDR-inspired).
//
// Every protocol message in the system — ORB requests, group-communication
// control traffic, invocation-layer envelopes — is serialized to bytes with
// this encoder before it touches the network model, so message sizes (and
// hence transmission delays) are realistic.
//
// Format: little-endian fixed-width integers, length-prefixed strings and
// sequences, one byte per bool.  There is no alignment padding; the format
// is private to this library.
//
// Struct layouts: a wire struct lists its fields once, as a `wire` function
// found by ADL,
//
//     void wire(auto& io, WireOf<MsgRef> auto& v) { io(v.sender, v.seq); }
//
// and both directions run that one list: Encoder and Decoder are each
// callable with the fields, writing or reading them in order.  Decode-side
// validation rides in the same function as `io.check(ok, what)`, which
// throws DecodeError on the decoder and does nothing on the encoder.
//
// Allocation discipline: the hot encode paths run once per simulated wire
// message, so the encoder supports exact pre-sizing.  A *counting* encoder
// (Encoder::counter()) runs the same encode() functions but only tallies
// bytes; a real encoder then reserves that size up front and appends with
// bulk writes, so one encode costs at most one allocation — zero when it
// adopts a recycled buffer with enough capacity (see serial/arena.hpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/bytes.hpp"

namespace newtop {

class Encoder {
public:
    Encoder() = default;

    /// Adopt `buf`'s storage (cleared, capacity kept) so encoding reuses a
    /// recycled buffer instead of allocating a fresh one.
    explicit Encoder(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

    /// A counting encoder: runs every put_* but only tallies the byte
    /// count.  Drive the same encode() calls through it to learn a
    /// message's exact wire size before encoding for real.
    [[nodiscard]] static Encoder counter() { return Encoder(CountingTag{}); }

    void put_u8(std::uint8_t v) {
        if (counting_) { ++count_; return; }
        // newtop-lint: allow(hot-path-alloc): counting pass + reserve() pre-size buf_, so steady-state pushes never reallocate
        buf_.push_back(v);
    }
    void put_u16(std::uint16_t v) { put_le(v); }
    void put_u32(std::uint32_t v) { put_le(v); }
    void put_u64(std::uint64_t v) { put_le(v); }
    void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
    void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
    void put_bool(bool v) { put_u8(v ? 1 : 0); }
    void put_double(double v);
    void put_string(std::string_view v);
    void put_blob(const Bytes& v);
    void put_blob(BytesView v);

    /// Write `fields` in order: the encode side of a `wire` layout.
    template <typename... Ts>
    void operator()(const Ts&... fields) {
        (encode(*this, fields), ...);
    }

    /// Decode-side validation in a `wire` layout; the encoder writes what it
    /// is given.
    void check(bool /*ok*/, const char* /*what*/) {}

    /// Append `n` raw bytes in one bulk write.
    void put_bytes(const std::uint8_t* data, std::size_t n);

    /// Pre-size the output buffer (no-op while counting).
    void reserve(std::size_t n) {
        if (!counting_) buf_.reserve(n);
    }

    /// Finish and take the encoded buffer.
    [[nodiscard]] Bytes take() && { return std::move(buf_); }

    /// Bytes written (or, for a counting encoder, tallied) so far.
    [[nodiscard]] std::size_t size() const { return counting_ ? count_ : buf_.size(); }

    /// Output buffer capacity (allocation diagnostics in tests).
    [[nodiscard]] std::size_t capacity() const { return buf_.capacity(); }

    /// Address of the output storage (allocation diagnostics in tests).
    [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }

private:
    struct CountingTag {};
    explicit Encoder(CountingTag) : counting_(true) {}

    template <typename T>
    void put_le(T v) {
        if (counting_) {
            count_ += sizeof(T);
            return;
        }
        const std::size_t at = buf_.size();
        buf_.resize(at + sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    Bytes buf_;
    std::size_t count_{0};
    bool counting_{false};
};

/// `v` in a `wire` layout: T itself when decoding, const T when encoding.
template <typename Self, typename T>
concept WireOf = std::same_as<std::remove_const_t<Self>, T>;

// ---------------------------------------------------------------------------
// encode(): the overloads below cover primitives, one-byte enums, standard
// containers, variants and every struct with a `wire` layout.
// ---------------------------------------------------------------------------

inline void encode(Encoder& e, std::uint8_t v) { e.put_u8(v); }
inline void encode(Encoder& e, std::uint16_t v) { e.put_u16(v); }
inline void encode(Encoder& e, std::uint32_t v) { e.put_u32(v); }
inline void encode(Encoder& e, std::uint64_t v) { e.put_u64(v); }
inline void encode(Encoder& e, std::int32_t v) { e.put_i32(v); }
inline void encode(Encoder& e, std::int64_t v) { e.put_i64(v); }
inline void encode(Encoder& e, bool v) { e.put_bool(v); }
inline void encode(Encoder& e, double v) { e.put_double(v); }
inline void encode(Encoder& e, const std::string& v) { e.put_string(v); }
inline void encode(Encoder& e, const Bytes& v) { e.put_blob(v); }

template <typename T>
    requires requires(Encoder& e, const T& v) { wire(e, v); }
void encode(Encoder& e, const T& v) {
    wire(e, v);
}

/// Enums travel as one byte; the decoder range-checks them (decoder.hpp).
template <typename E>
    requires std::is_enum_v<E>
void encode(Encoder& e, E v) {
    static_assert(sizeof(E) == 1, "wire enums are one byte");
    e.put_u8(static_cast<std::uint8_t>(v));
}

/// One alternative of `Variant`, to be encoded exactly as a Variant holding
/// it encodes, without building the Variant (and copying the value in).
template <typename Variant, typename T>
struct AsAlternative {
    const T& value;
};

namespace detail {
/// Index of T among Ts (T must occur exactly once).
template <typename T, typename... Ts>
consteval std::size_t alternative_index() {
    constexpr bool kMatch[] = {std::is_same_v<T, Ts>...};
    static_assert((std::size_t{0} + ... + std::size_t{std::is_same_v<T, Ts>}) == 1,
                  "T must be exactly one of the variant's alternatives");
    std::size_t i = 0;
    while (!kMatch[i]) ++i;
    return i;
}
}  // namespace detail

/// A variant travels as a one-byte tag, the alternative's index + 1, then
/// the alternative.
template <typename... Ts, typename T>
void encode(Encoder& e, AsAlternative<std::variant<Ts...>, T> v) {
    static_assert(sizeof...(Ts) < 256, "variant tag is one byte");
    e.put_u8(static_cast<std::uint8_t>(detail::alternative_index<T, Ts...>() + 1));
    encode(e, v.value);
}

template <typename... Ts>
void encode(Encoder& e, const std::variant<Ts...>& v) {
    std::visit(
        [&e]<typename T>(const T& alternative) {
            encode(e, AsAlternative<std::variant<Ts...>, T>{alternative});
        },
        v);
}

template <typename T>
void encode(Encoder& e, const std::vector<T>& v) {
    e.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& item : v) encode(e, item);
}

template <typename T>
void encode(Encoder& e, const std::optional<T>& v) {
    e.put_bool(v.has_value());
    if (v) encode(e, *v);
}

template <typename A, typename B>
void encode(Encoder& e, const std::pair<A, B>& v) {
    encode(e, v.first);
    encode(e, v.second);
}

template <typename K, typename V>
void encode(Encoder& e, const std::map<K, V>& v) {
    e.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
        encode(e, key);
        encode(e, value);
    }
}

/// Exact wire size of a value, via a counting pass.
template <typename T>
std::size_t encoded_size(const T& value) {
    Encoder c = Encoder::counter();
    encode(c, value);
    return c.size();
}

/// Encode a single value to a standalone buffer, sized exactly.
template <typename T>
Bytes encode_to_bytes(const T& value) {
    Encoder e;
    e.reserve(encoded_size(value));
    encode(e, value);
    return std::move(e).take();
}

}  // namespace newtop
