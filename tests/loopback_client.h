#ifndef SCALEIN_TESTS_LOOPBACK_CLIENT_H_
#define SCALEIN_TESTS_LOOPBACK_CLIENT_H_

// A blocking loopback client shared by the serve tests: one connection per
// call, read until the server closes it.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/message.h"

namespace scalein::serve {

/// A connected socket to 127.0.0.1:<port>, or -1 (and a test failure).
inline int DialLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ADD_FAILURE() << "socket: " << std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect to port " << port << ": " << std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Every byte received on `fd` until the server closes (or resets) it.
inline std::string ReadToEof(int fd) {
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  return reply;
}

/// Sends `request` on a fresh connection and returns everything the server
/// sends back before closing it; "" for a connection dropped unserved.
inline std::string RoundTrip(uint16_t port, std::string_view request) {
  const int fd = DialLoopback(port);
  if (fd < 0) return "";
  // MSG_NOSIGNAL: a server that already dropped us fails this send instead
  // of killing the test with SIGPIPE.
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string reply = ReadToEof(fd);
  ::close(fd);
  return reply;
}

/// RoundTrip of newline-terminated protocol lines to a serve::Port, decoded
/// into its (ok, payload) response frames.
inline std::vector<std::pair<bool, std::string>> PortExchange(
    uint16_t port, std::string_view lines) {
  FrameDecoder decoder;
  decoder.Feed(RoundTrip(port, lines));
  std::vector<std::pair<bool, std::string>> frames;
  bool ok;
  std::string payload;
  while (decoder.Next(&ok, &payload)) frames.emplace_back(ok, payload);
  return frames;
}

/// One `GET <path>` against a serve::MetricsHttp; the raw HTTP response.
inline std::string HttpGet(uint16_t port, const std::string& path) {
  return RoundTrip(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

}  // namespace scalein::serve

#endif  // SCALEIN_TESTS_LOOPBACK_CLIENT_H_
