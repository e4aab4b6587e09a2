// Open-loop HTTP sender for the served workload.
//
// serve::run_load sends one body at one rate; the served workload needs a
// request mix, per-request correctness checks and the sender's own
// lateness. This sender runs on one thread: it opens a non-blocking
// loopback connection for each request at its scheduled instant, whatever
// earlier requests are doing, and multiplexes all outstanding ones with
// poll(). Latency is measured from the scheduled send time, so a stalled
// server's backlog shows up in the tail; lateness (actual minus scheduled
// send) is how far the sender itself fell behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace histpc::e2e {

struct ScheduledRequest {
  double at_s = 0.0;  ///< send time, seconds after the phase starts
  std::string target;
  std::string body;
  int kind = 0;  ///< caller's request class (not sent)
};

struct Reply {
  int status = 0;  ///< 0 = transport error or timeout
  std::string body;
  double latency_ms = 0.0;  ///< completion minus scheduled send
  double late_ms = 0.0;     ///< actual minus scheduled send
};

/// Arrival times of a Poisson process at `rps` over [0, seconds), from `seed`.
std::vector<double> poisson_arrivals(double rps, double seconds, std::uint64_t seed);

/// Send every request at its scheduled time; replies in schedule order.
std::vector<Reply> send_open_loop(const std::string& host, int port,
                                  const std::vector<ScheduledRequest>& schedule,
                                  double timeout_s);

}  // namespace histpc::e2e
