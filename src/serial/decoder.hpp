// Wire decoding, the inverse of Encoder.
//
// Every read is bounds-checked; malformed or truncated input raises
// DecodeError rather than reading out of range (Core Guidelines P.7: catch
// run-time errors early).  Decoders never copy the input buffer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/strong_id.hpp"

namespace newtop {

/// Thrown when the input is truncated or structurally invalid.
class DecodeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class Decoder {
public:
    /// The decoder borrows `buf`; the caller keeps it alive while decoding.
    explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}

    /// Decode out of a borrowed view (e.g. a slice of a received wire
    /// buffer); the view's owner keeps the storage alive while decoding.
    explicit Decoder(BytesView buf) : data_(buf.data()), size_(buf.size()) {}

    std::uint8_t get_u8() {
        require(1);
        return data_[pos_++];
    }
    std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
    bool get_bool() {
        const std::uint8_t v = get_u8();
        if (v > 1) throw DecodeError("invalid bool encoding");
        return v == 1;
    }
    double get_double();
    // newtop-lint: allow(hot-path-alloc): control-plane only; data-plane payload reads use get_blob_view
    std::string get_string();
    Bytes get_blob();

    /// Zero-copy blob read: a view into the decoder's underlying buffer,
    /// valid only as long as that buffer.  Use for payloads consumed before
    /// the wire message is released.
    BytesView get_blob_view();

    /// Read `fields` in order: the decode side of a `wire` layout.
    template <typename... Ts>
    void operator()(Ts&... fields) {
        (decode(*this, fields), ...);
    }

    /// Decode-side validation in a `wire` layout: reject the input unless
    /// `ok`.
    void check(bool ok, const char* what) {
        if (!ok) throw DecodeError(what);
    }

    /// True when the whole buffer has been consumed.
    [[nodiscard]] bool exhausted() const { return pos_ == size_; }

    /// Bytes remaining.
    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

private:
    /// One little-endian fixed-width integer, whatever the host's order.
    template <typename T>
    T get_le() {
        require(sizeof(T));
        T v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, data_ + pos_, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i) {
                v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
            }
        }
        pos_ += sizeof(T);
        return v;
    }

    void require(std::size_t n) const {
        if (size_ - pos_ < n) throw DecodeError("truncated input");
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_{0};
};

// ---------------------------------------------------------------------------
// decode(): mirror of encode(), overload for overload.
// ---------------------------------------------------------------------------

inline void decode(Decoder& d, std::uint8_t& v) { v = d.get_u8(); }
inline void decode(Decoder& d, std::uint16_t& v) { v = d.get_u16(); }
inline void decode(Decoder& d, std::uint32_t& v) { v = d.get_u32(); }
inline void decode(Decoder& d, std::uint64_t& v) { v = d.get_u64(); }
inline void decode(Decoder& d, std::int32_t& v) { v = d.get_i32(); }
inline void decode(Decoder& d, std::int64_t& v) { v = d.get_i64(); }
inline void decode(Decoder& d, bool& v) { v = d.get_bool(); }
inline void decode(Decoder& d, double& v) { v = d.get_double(); }
inline void decode(Decoder& d, std::string& v) { v = d.get_string(); }
inline void decode(Decoder& d, Bytes& v) { v = d.get_blob(); }

template <typename T>
    requires requires(Decoder& d, T& v) { wire(d, v); }
void decode(Decoder& d, T& v) {
    wire(d, v);
}

/// One-byte enums are range-checked against `wire_max(E{})`, the highest
/// valid enumerator, which each wire enum declares beside its definition.
template <typename E>
    requires std::is_enum_v<E>
void decode(Decoder& d, E& v) {
    const std::uint8_t raw = d.get_u8();
    if (raw > static_cast<std::uint8_t>(wire_max(E{}))) {
        throw DecodeError("enum value out of range");
    }
    v = static_cast<E>(raw);
}

namespace detail {
/// Decodes into the alternative `v` already holds when it is T (as a fresh
/// variant holds its first one) instead of rebuilding it: decoding
/// overwrites every field.
template <typename Variant, typename T>
void decode_alternative(Decoder& d, Variant& v) {
    T* held = std::get_if<T>(&v);
    decode(d, held != nullptr ? *held : v.template emplace<T>());
}
}  // namespace detail

/// Tag (alternative index + 1), then the alternative, decoded in place.
template <typename... Ts>
void decode(Decoder& d, std::variant<Ts...>& v) {
    using Variant = std::variant<Ts...>;
    static constexpr void (*kAlternatives[])(Decoder&, Variant&) = {
        &detail::decode_alternative<Variant, Ts>...};
    const std::uint8_t tag = d.get_u8();
    if (tag == 0 || tag > sizeof...(Ts)) throw DecodeError("unknown variant tag");
    kAlternatives[tag - 1](d, v);
}

/// The fewest bytes any encoding of a T occupies.  Sequence decoders bound
/// a claimed element count by it before they reserve, so a short hostile
/// frame cannot make them claim memory its bytes could never fill.
template <typename T>
std::size_t min_wire_size();

/// A `wire` layout's io that sums each field's minimum size.  (It lives in
/// namespace newtop so the layouts beside each struct are found by ADL.)
struct MinWireSizer {
    std::size_t size{0};

    template <typename... Ts>
    void operator()(const Ts&... /*fields*/) {
        size += (std::size_t{0} + ... + min_wire_size<Ts>());
    }
    void check(bool /*ok*/, const char* /*what*/) {}
};

namespace detail {
template <typename T>
    requires std::is_arithmetic_v<T>
std::size_t min_size_of(const T* /*tag*/) {
    return std::is_same_v<T, bool> ? 1 : sizeof(T);
}
template <typename E>
    requires std::is_enum_v<E>
std::size_t min_size_of(const E* /*tag*/) {
    return 1;
}
inline std::size_t min_size_of(const std::string* /*tag*/) { return 4; }
template <typename T>
std::size_t min_size_of(const std::vector<T>* /*tag*/) {
    return 4;
}
template <typename K, typename V>
std::size_t min_size_of(const std::map<K, V>* /*tag*/) {
    return 4;
}
template <typename T>
std::size_t min_size_of(const std::optional<T>* /*tag*/) {
    return 1;
}
template <typename A, typename B>
std::size_t min_size_of(const std::pair<A, B>* /*tag*/) {
    return min_wire_size<A>() + min_wire_size<B>();
}
template <typename... Ts>
std::size_t min_size_of(const std::variant<Ts...>* /*tag*/) {
    return 1 + std::min({min_wire_size<Ts>()...});
}
template <typename Tag, typename Rep>
std::size_t min_size_of(const StrongId<Tag, Rep>* /*tag*/) {
    return min_wire_size<Rep>();
}
template <typename T>
    requires requires(MinWireSizer& io, const T& v) { wire(io, v); }
std::size_t min_size_of(const T* /*tag*/) {
    MinWireSizer io;
    const T value{};
    wire(io, value);
    return io.size;
}
}  // namespace detail

template <typename T>
std::size_t min_wire_size() {
    static const std::size_t size = detail::min_size_of(static_cast<const T*>(nullptr));
    return size;
}

/// Reject a claimed count of `n` elements, each at least `element_size`
/// bytes, that the rest of the input cannot hold.
inline void check_sequence_length(const Decoder& d, std::uint32_t n, std::size_t element_size,
                                  const char* what) {
    if (n > d.remaining() / std::max<std::size_t>(element_size, 1)) throw DecodeError(what);
}

template <typename T>
void decode(Decoder& d, std::vector<T>& v) {
    const std::uint32_t n = d.get_u32();
    check_sequence_length(d, n, min_wire_size<T>(), "sequence length exceeds input");
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        T item;
        decode(d, item);
        v.push_back(std::move(item));
    }
}

template <typename T>
void decode(Decoder& d, std::optional<T>& v) {
    if (d.get_bool()) {
        T item;
        decode(d, item);
        v = std::move(item);
    } else {
        v.reset();
    }
}

template <typename A, typename B>
void decode(Decoder& d, std::pair<A, B>& v) {
    decode(d, v.first);
    decode(d, v.second);
}

template <typename K, typename V>
void decode(Decoder& d, std::map<K, V>& v) {
    const std::uint32_t n = d.get_u32();
    check_sequence_length(d, n, min_wire_size<K>() + min_wire_size<V>(),
                          "map length exceeds input");
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        K key;
        V value;
        decode(d, key);
        decode(d, value);
        v.emplace(std::move(key), std::move(value));
    }
}

/// Decode a whole buffer into one value; throws if bytes are left over.
template <typename T>
T decode_from_bytes(BytesView buf) {
    Decoder d(buf);
    T value;
    decode(d, value);
    if (!d.exhausted()) throw DecodeError("trailing bytes after value");
    return value;
}

}  // namespace newtop
