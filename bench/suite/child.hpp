#pragma once
// Cold trials: every measured unit of work runs in a freshly forked child,
// so application caches, the thread-local core::RunScratch pools, the
// checkpoint caches and the resident set all start empty.  The child sends
// one JSON record back over a pipe; the parent reads the child's peak RSS
// from wait4.  The parent itself never starts a thread, so fork() is safe.

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "json.hpp"

namespace ffis::suite {

/// The child's end of the result pipe.
class ChildChannel {
 public:
  explicit ChildChannel(int fd) noexcept : fd_(fd) {}

  /// Writes the record and ends the child at once, from any thread: the
  /// set-up samples stop the moment they have their timestamp instead of
  /// finishing (or tearing down) the plan.
  [[noreturn]] void send_and_exit(const Json& record) const noexcept {
    const std::string text = record.dump();
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = ::write(fd_, text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(3);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }

 private:
  int fd_;
};

struct ChildOutcome {
  Json record;
  double max_rss_mb = 0.0;  ///< the child's ru_maxrss
};

/// Forks, runs `body(channel)` in the child and returns the record it
/// produced (its return value, or what it passed to send_and_exit).  Throws
/// when the child fails, and kills it past `deadline_s`.
template <class Body>
ChildOutcome run_in_child(const std::string& what, Body&& body, int deadline_s = 170) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed for " + what);
  std::fflush(nullptr);  // the child must not re-flush inherited buffers
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed for " + what);
  }
  if (pid == 0) {
    ::close(fds[0]);
    const ChildChannel channel(fds[1]);
    try {
      channel.send_and_exit(body(channel));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s: %s\n", what.c_str(), e.what());
    } catch (...) {
      std::fprintf(stderr, "bench_suite: %s: unknown exception\n", what.c_str());
    }
    std::fflush(stderr);
    ::_exit(1);
  }
  ::close(fds[1]);

  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
  bool timed_out = false;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = ready == 0;
      break;
    }
    char buf[65536];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);

  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed for " + what);
  }
  if (timed_out) {
    throw std::runtime_error(what + " exceeded " + std::to_string(deadline_s) + " s");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(what + " failed (" +
                             (WIFSIGNALED(status)
                                  ? "signal " + std::to_string(WTERMSIG(status))
                                  : "exit code " + std::to_string(WEXITSTATUS(status))) +
                             ")");
  }
  ChildOutcome out;
  out.record = Json::parse(text);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  return out;
}

}  // namespace ffis::suite
