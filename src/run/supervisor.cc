#include "run/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <new>

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace mcube::run
{

void
Heartbeat::beat() const
{
#ifdef __unix__
    if (fd < 0)
        return;
    // Non-blocking single byte; EAGAIN means the pipe already holds
    // 64K unread beats, which proves liveness better than blocking
    // the simulation on it would.
    char b = 1;
    ssize_t n;
    do {
        n = ::write(fd, &b, 1);
    } while (n < 0 && errno == EINTR);
#endif
}

bool
Supervisor::supported()
{
#ifdef __unix__
    return true;
#else
    return false;
#endif
}

#ifdef __unix__

namespace
{

using Clock = std::chrono::steady_clock;

struct ChildProc
{
    pid_t pid = -1;
    int hbFd = -1;   //!< parent's read end of the heartbeat pipe
    int resFd = -1;  //!< parent's read end of the result pipe
    Clock::time_point start;
    Clock::time_point deadline;
    Clock::time_point hbDeadline;
    bool hasDeadline = false;
    bool hasHb = false;
    SupervisorKill kill = SupervisorKill::None;
    WorkerOutcome out;
};

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
writeAll(int fd, const char *p, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;  // parent gone (EPIPE) or pipe broken: give up
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
}

/** Drain @p fd into @p out; returns false once EOF is reached. */
bool
drainFd(int fd, std::string *out, std::uint64_t *beats)
{
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            if (out)
                out->append(buf, static_cast<std::size_t>(n));
            if (beats)
                *beats += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n == 0)
            return false;  // EOF: writer closed
        if (errno == EINTR)
            continue;
        return true;  // EAGAIN: nothing more right now
    }
}

[[noreturn]] void
runChild(const Supervisor::ChildFn &fn, const WorkerLimits &limits,
         int hbWrite, int resWrite)
{
    // The parent coordinates graceful shutdown: its first SIGINT or
    // SIGTERM means "stop dispatching, let workers drain", so the
    // worker itself must not die on a terminal-delivered signal. The
    // parent's hard kill is SIGKILL, which cannot be ignored.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);
    std::signal(SIGPIPE, SIG_IGN);

    if (limits.rssBytes > 0) {
        // RLIMIT_AS, not RLIMIT_RSS: the latter is unenforced on
        // modern Linux. Address space over-counts reservations a
        // little, but the simulator's big tables are touched pages.
        struct rlimit rl;
        rl.rlim_cur = limits.rssBytes;
        rl.rlim_max = limits.rssBytes;
        ::setrlimit(RLIMIT_AS, &rl);
    }
    // Allocation failure under the cap gets its own exit code so the
    // supervisor triages it as OOM, not as a generic crash.
    std::set_new_handler([] {
        std::fputs("worker: allocation failed under the memory cap\n",
                   stderr);
        ::_exit(kOomExit);
    });

    int code = kFatalExit;
    std::string result;
    try {
        code = fn(Heartbeat(hbWrite), result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "worker: uncaught exception: %s\n",
                     e.what());
        code = kFatalExit;
    } catch (...) {
        std::fputs("worker: uncaught non-standard exception\n", stderr);
        code = kFatalExit;
    }
    writeAll(resWrite, result.data(), result.size());
    ::close(resWrite);
    ::close(hbWrite);
    std::fflush(stderr);
    // _exit, never return: unwinding into the parent's main (gtest,
    // atexit handlers, stdio flush of inherited buffers) from a fork
    // would corrupt the parent's own output and state.
    ::_exit(code);
}

bool
spawn(const Supervisor::ChildFn &fn, const WorkerLimits &limits,
      ChildProc &cp)
{
    int hb[2] = {-1, -1};
    int res[2] = {-1, -1};
    if (::pipe(hb) != 0)
        return false;
    if (::pipe(res) != 0) {
        ::close(hb[0]);
        ::close(hb[1]);
        return false;
    }
    setNonBlocking(hb[0]);
    setNonBlocking(res[0]);
    setNonBlocking(hb[1]);  // beat() must never block the simulation

    // Flush stdio so the child's inherited buffers are empty; a child
    // _exit never flushes, so nothing can be emitted twice.
    std::fflush(stdout);
    std::fflush(stderr);

    pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {hb[0], hb[1], res[0], res[1]})
            ::close(fd);
        return false;
    }
    if (pid == 0) {
        ::close(hb[0]);
        ::close(res[0]);
        runChild(fn, limits, hb[1], res[1]);  // never returns
    }

    ::close(hb[1]);
    ::close(res[1]);

    cp = ChildProc{};
    cp.pid = pid;
    cp.hbFd = hb[0];
    cp.resFd = res[0];
    cp.start = Clock::now();
    if (limits.wallSeconds > 0) {
        cp.hasDeadline = true;
        cp.deadline =
            cp.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               limits.wallSeconds));
    }
    if (limits.heartbeatSeconds > 0) {
        cp.hasHb = true;
        cp.hbDeadline =
            cp.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               limits.heartbeatSeconds));
    }
    return true;
}

} // namespace

WorkerOutcome
Supervisor::runOne(const ChildFn &fn) const
{
    ChildProc cp;
    if (!spawn(fn, limits, cp)) {
        WorkerOutcome bad;
        bad.triage = Triage::Fatal;
        bad.error = "fork/pipe failed";
        return bad;
    }

    const auto hbWindow = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(limits.heartbeatSeconds));

    for (;;) {
        // Wait for output, exit, or the nearer deadline.
        pollfd fds[2];
        nfds_t nfds = 0;
        for (int fd : {cp.hbFd, cp.resFd})
            if (fd >= 0)
                fds[nfds++] = {fd, POLLIN, 0};
        auto now = Clock::now();
        // The 200ms cap bounds how long an exit goes unnoticed once
        // both pipes are at EOF; deadlines shorten the wait.
        auto wait = std::chrono::milliseconds(200);
        if (cp.kill == SupervisorKill::None) {
            if (cp.hasDeadline)
                wait = std::min(
                    wait, std::chrono::duration_cast<
                              std::chrono::milliseconds>(cp.deadline
                                                         - now));
            if (cp.hasHb)
                wait = std::min(
                    wait, std::chrono::duration_cast<
                              std::chrono::milliseconds>(cp.hbDeadline
                                                         - now));
        }
        int timeoutMs = static_cast<int>(
            std::max<std::chrono::milliseconds::rep>(wait.count(), 0));
        // With every pipe at EOF but the child still alive, poll is
        // a plain sleep — never a spin on waitpid.
        if (::poll(fds, nfds, timeoutMs + 1) < 0 && errno != EINTR) {
            WorkerOutcome bad;
            bad.triage = Triage::Fatal;
            bad.error = "poll failed";
            return bad;  // the child gets reaped by init
        }

        now = Clock::now();
        // Drain pipes first so a burst of beats observed before the
        // deadline check counts in the child's favour.
        if (cp.hbFd >= 0) {
            std::uint64_t beats = 0;
            if (!drainFd(cp.hbFd, nullptr, &beats)) {
                ::close(cp.hbFd);
                cp.hbFd = -1;
            }
            if (beats > 0) {
                cp.out.heartbeats += beats;
                if (cp.hasHb)
                    cp.hbDeadline = now + hbWindow;
            }
        }
        if (cp.resFd >= 0 && !drainFd(cp.resFd, &cp.out.result, nullptr)) {
            ::close(cp.resFd);
            cp.resFd = -1;
        }
        if (cp.kill == SupervisorKill::None) {
            if (cp.hasDeadline && now >= cp.deadline) {
                cp.kill = SupervisorKill::Deadline;
                ::kill(cp.pid, SIGKILL);
            } else if (cp.hasHb && now >= cp.hbDeadline) {
                cp.kill = SupervisorKill::Heartbeat;
                ::kill(cp.pid, SIGKILL);
            }
        }

        int status = 0;
        pid_t r = ::waitpid(cp.pid, &status, WNOHANG);
        if (r == 0)
            continue;
        // Pull any bytes still buffered in the pipes (they outlive the
        // writer), then finalize.
        if (cp.hbFd >= 0) {
            drainFd(cp.hbFd, nullptr, &cp.out.heartbeats);
            ::close(cp.hbFd);
        }
        if (cp.resFd >= 0) {
            drainFd(cp.resFd, &cp.out.result, nullptr);
            ::close(cp.resFd);
        }
        WorkerOutcome out = std::move(cp.out);
        if (r < 0) {
            out.triage = Triage::Fatal;
            out.error = "waitpid failed";
        } else {
            out.triage = triageWaitStatus(status, cp.kill);
            if (WIFEXITED(status))
                out.exitCode = WEXITSTATUS(status);
            if (WIFSIGNALED(status))
                out.termSignal = WTERMSIG(status);
        }
        out.wallSeconds =
            std::chrono::duration<double>(Clock::now() - cp.start)
                .count();
        return out;
    }
}

#else // !__unix__

WorkerOutcome
Supervisor::runOne(const ChildFn &) const
{
    // Callers check supported() and run the item inline instead.
    WorkerOutcome out;
    out.error = "process isolation needs fork()";
    return out;
}

#endif // __unix__

} // namespace mcube::run
