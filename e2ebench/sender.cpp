#include "sender.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common.h"
#include "util/rng.h"

namespace histpc::e2e {

std::vector<double> poisson_arrivals(double rps, double seconds, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> at;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rps;
    if (t >= seconds) return at;
    at.push_back(t);
  }
}

namespace {

// Outstanding connections beyond this count are failed without sending,
// so an unresponsive server cannot exhaust file descriptors.
constexpr std::size_t kMaxOutstanding = 512;

struct Conn {
  int fd = -1;
  std::size_t index = 0;
  std::string out;
  std::size_t written = 0;
  std::string in;
};

std::string frame(const std::string& host, const ScheduledRequest& r) {
  std::string s = "POST " + r.target + " HTTP/1.1\r\nHost: " + host +
                  "\r\nContent-Type: application/json\r\nConnection: close\r\nContent-Length: " +
                  std::to_string(r.body.size()) + "\r\n\r\n";
  s += r.body;
  return s;
}

/// Status and body of a complete response read to EOF; status 0 if malformed.
void parse_response(const std::string& raw, Reply& reply) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos) return;
  const std::size_t sp = raw.find(' ');
  reply.status = std::atoi(raw.c_str() + sp + 1);
  reply.body = raw.substr(head_end + 4);
}

int open_connection(const sockaddr_in& addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::vector<Reply> send_open_loop(const std::string& host, int port,
                                  const std::vector<ScheduledRequest>& schedule,
                                  double timeout_s) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, host == "localhost" ? "127.0.0.1" : host.c_str(), &addr.sin_addr);

  std::vector<Reply> replies(schedule.size());
  std::vector<Conn> active;
  std::vector<pollfd> fds;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  auto due = [&](std::size_t i) { return schedule[i].at_s * 1e3; };

  auto finish = [&](std::size_t slot, bool ok) {
    Conn& c = active[slot];
    Reply& r = replies[c.index];
    r.latency_ms = ms_between(start, Clock::now()) - due(c.index);
    if (ok) parse_response(c.in, r);
    ::close(c.fd);
    active[slot] = std::move(active.back());
    active.pop_back();
  };

  while (next < schedule.size() || !active.empty()) {
    const double now = ms_between(start, Clock::now());
    while (next < schedule.size() && due(next) <= now) {
      Reply& r = replies[next];
      r.late_ms = now - due(next);
      const int fd = active.size() < kMaxOutstanding ? open_connection(addr) : -1;
      if (fd < 0) {
        r.latency_ms = r.late_ms;
      } else {
        active.push_back(Conn{fd, next, frame(host, schedule[next]), 0, {}});
      }
      ++next;
    }
    for (std::size_t i = active.size(); i-- > 0;)
      if (now - due(active[i].index) > timeout_s * 1e3) finish(i, false);

    fds.clear();
    for (const Conn& c : active)
      fds.push_back(pollfd{c.fd, static_cast<short>(c.written < c.out.size() ? POLLOUT : POLLIN), 0});
    double wait_ms = 50.0;
    if (next < schedule.size()) wait_ms = std::min(wait_ms, due(next) - now);
    const timespec ts{0, static_cast<long>(std::max(0.0, wait_ms) * 1e6)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;

    // Walk backwards: finish() swaps the last connection into the slot.
    for (std::size_t i = fds.size(); i-- > 0;) {
      if (fds[i].revents == 0) continue;
      Conn& c = active[i];
      if (c.written < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.written, c.out.size() - c.written,
                                 MSG_NOSIGNAL);
        if (n > 0) c.written += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) finish(i, false);
        continue;
      }
      char buf[16384];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) c.in.append(buf, static_cast<std::size_t>(n));
      else if (n == 0) finish(i, true);
      else if (errno != EAGAIN && errno != EWOULDBLOCK) finish(i, false);
    }
  }
  return replies;
}

}  // namespace histpc::e2e
