// Wire codec: Message <-> bytes.
//
// Frame layout: [u8 type][fields]. The type byte is the Message variant
// index + 1. Each message (and each nested HopState, LsaLink, UpdateHop
// and PairCorrelator) lists its fields once, in wire order, in a template
// that both the writer and the reader run; a field's C++ type picks its
// encoding: strong ids and durations (picoseconds) are fixed 64-bit
// little-endian, 32- and 64-bit counters are varints, doubles are IEEE
// bits, bytes, booleans, enums and Bell indices one byte, strings and
// byte blobs length-prefixed, optionals a presence byte, lists a varint
// count then the elements.
//
// The decoder is strict: an unknown type, an enum or outcome bit out of
// range, an implausible list length, a bad frame checksum, a pure ACK
// carrying a payload, truncation or trailing bytes raise CodecError.
#pragma once

#include "qbase/bytes.hpp"
#include "netmsg/message.hpp"

namespace qnetp::netmsg {

Bytes encode(const Message& m);
Message decode(const Bytes& bytes);

}  // namespace qnetp::netmsg
