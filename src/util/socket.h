/**
 * @file
 * Unix-domain socket and fd-I/O helpers for the service layer.
 *
 * The service daemon speaks its wire protocol over SOCK_STREAM
 * AF_UNIX sockets; these wrappers cover exactly what it needs —
 * RAII ownership of a descriptor, listen/accept/connect on a
 * filesystem path, poll-with-timeout so accept loops can notice a
 * shutdown request, EINTR-safe full-buffer read/write for blocking
 * clients, and the event-driven primitives of the service server:
 * an epoll wrapper (Poller), an eventfd wakeup (WakeupFd) and
 * non-blocking partial read/write helpers that report would-block
 * and peer-gone as statuses instead of exceptions. All hard
 * failures raise h2p::Error naming the operation and errno text.
 *
 * POSIX/Linux-only (like the rest of the daemon); the library core
 * never includes this header.
 */

#ifndef H2P_UTIL_SOCKET_H_
#define H2P_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace h2p {
namespace util {

/**
 * Owning wrapper of a file descriptor: closes on destruction,
 * move-only. A default-made Fd is empty (valid() == false).
 */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { close(); }

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &operator=(Fd &&other) noexcept;
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    bool valid() const { return fd_ >= 0; }
    int get() const { return fd_; }

    /** Close now (idempotent). */
    void close();

    /**
     * shutdown(2) both directions, leaving the descriptor open: a
     * blocked read in another thread returns 0 (EOF) immediately.
     * The idiomatic way to unblock a connection thread on shutdown —
     * close() alone would race with the concurrent read.
     */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/**
 * Create, bind and listen a Unix-domain stream socket at @p path.
 * A pre-existing socket file is probed with a connect first: when a
 * live daemon answers, this throws instead of stealing its path;
 * only a stale socket (nothing listening — a crashed daemon's
 * leftover) is unlinked and reclaimed. A non-socket file at the
 * path is never touched and is an error.
 */
Fd unixListen(const std::string &path, int backlog = 128);

/** Connect to the Unix-domain socket at @p path. */
Fd unixConnect(const std::string &path);

/** Outcome of one acceptConnection() call. */
enum class AcceptStatus
{
    /** A connection was accepted. */
    Accepted,
    /**
     * Nothing pending on a non-blocking listener, or the listener
     * was shut down / closed under us: accept loops exit (or yield)
     * quietly.
     */
    WouldBlock,
    /**
     * The process or system is out of descriptors (EMFILE/ENFILE)
     * or socket memory. The connection stays in the backlog and the
     * listener stays readable, so retrying at once busy-loops: back
     * off instead.
     */
    Exhausted,
};

/**
 * Accept one connection on @p listener into @p out with accept4(2):
 * the new fd is close-on-exec, and non-blocking when
 * @p non_blocking (no extra fcntl calls).
 */
AcceptStatus acceptConnection(const Fd &listener, Fd &out,
                              bool non_blocking);

/**
 * Wait until @p fd is readable or @p timeout_ms elapses. Returns
 * true when readable (or in error/hangup state — the subsequent read
 * reports it), false on timeout.
 */
bool waitReadable(const Fd &fd, int timeout_ms);

/**
 * Read exactly @p n bytes into @p buf, retrying on EINTR and short
 * reads. Returns false on clean EOF at byte 0 (the peer closed
 * between messages); EOF mid-buffer is a truncation and throws.
 */
bool readExact(const Fd &fd, void *buf, size_t n);

/** Write all @p n bytes of @p buf, retrying on EINTR/short writes. */
void writeAll(const Fd &fd, const void *buf, size_t n);

// ---------------------------------------------------------------------
// Non-blocking primitives for the event-driven server.

/** Put @p fd into non-blocking mode. */
void setNonBlocking(const Fd &fd);

/** Outcome of one non-blocking I/O attempt. */
enum class IoStatus
{
    /** Some progress was made (bytes transferred > 0). */
    Ok,
    /** The operation would block; retry when the fd is ready. */
    WouldBlock,
    /** The peer is gone (EOF on read, EPIPE/ECONNRESET on write). */
    PeerClosed,
};

/**
 * Read up to @p n bytes into @p buf from a non-blocking fd. On Ok,
 * @p got is the byte count (> 0); on WouldBlock/PeerClosed it is 0.
 * Hard errors throw.
 */
IoStatus readSome(const Fd &fd, void *buf, size_t n, size_t &got);

/** One gather-write segment (bytes are borrowed, not copied). */
struct ByteRange
{
    const void *data = nullptr;
    size_t size = 0;
};

/**
 * Vectored non-blocking write of @p bufs (sent with MSG_NOSIGNAL so
 * a vanished peer surfaces as PeerClosed, not SIGPIPE). On Ok,
 * @p written is the number of bytes accepted (may be short); on
 * WouldBlock/PeerClosed it is 0. Hard errors throw.
 */
IoStatus writevSome(const Fd &fd, const ByteRange *bufs, size_t nbufs,
                    size_t &written);

/**
 * An epoll instance. Registered fds carry an opaque 64-bit key that
 * wait() returns when the fd is ready, so the owner can map it to its
 * own connection table without storing pointers in the kernel.
 * Interest is level-triggered unless it carries kOneShot.
 *
 * Thread-safe: any number of threads may wait() on one Poller while
 * others add(), modify() or remove() fds (the kernel serialises
 * them). With kOneShot an fd reports one event to exactly one waiter
 * and then stays disarmed until modify() re-arms it, which is how a
 * pool of threads can share one epoll set and still hand each fd to
 * one thread at a time.
 */
class Poller
{
  public:
    /** Interest bits for add()/modify(). */
    static constexpr uint32_t kRead = 1u;
    static constexpr uint32_t kWrite = 2u;
    /** Disarm after one event (EPOLLONESHOT); modify() re-arms. */
    static constexpr uint32_t kOneShot = 4u;

    Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Register @p fd with @p interest (kRead/kWrite bits). */
    void add(const Fd &fd, uint32_t interest, uint64_t key);

    /** Change the interest set of a registered fd. */
    void modify(const Fd &fd, uint32_t interest, uint64_t key);

    /** Deregister @p fd (must still be open). */
    void remove(const Fd &fd);

    /**
     * Block until a registered fd is ready (or has an error or hang-up
     * pending) and return its key — one fd per call, so a thread never
     * holds events another waiting thread could take.
     */
    uint64_t wait();

  private:
    Fd epoll_;
};

/**
 * An eventfd to register (level-triggered) with a Poller: once
 * signal()led it stays readable, so every wait() on it returns from
 * then on — a broadcast to all waiting threads. signal() is
 * async-signal- and thread-safe.
 */
class WakeupFd
{
  public:
    WakeupFd();

    WakeupFd(const WakeupFd &) = delete;
    WakeupFd &operator=(const WakeupFd &) = delete;

    /** Make the fd readable (idempotent). */
    void signal() const;

    const Fd &fd() const { return fd_; }

  private:
    Fd fd_;
};

} // namespace util
} // namespace h2p

#endif // H2P_UTIL_SOCKET_H_
