#include "netmsg/message.hpp"

#include <iterator>

namespace qnetp::netmsg {

std::string to_string(RequestType t) {
  switch (t) {
    case RequestType::keep: return "KEEP";
    case RequestType::early: return "EARLY";
    case RequestType::measure: return "MEASURE";
  }
  return "?";
}

std::string message_name(const Message& m) {
  // Indexed like the variant, i.e. in wire order.
  static constexpr const char* kNames[] = {
      "FORWARD", "COMPLETE",    "TRACK",    "EXPIRE",
      "INSTALL", "INSTALL_ACK", "TEARDOWN", "KEEPALIVE",
      "TEST_RESULT", "LSA",     "UPDATE",   "FRAME"};
  static_assert(std::size(kNames) == std::variant_size_v<Message>);
  return kNames[m.index()];
}

}  // namespace qnetp::netmsg
