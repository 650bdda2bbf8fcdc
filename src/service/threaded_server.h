/**
 * @file
 * The thread-per-connection transport, kept as the measured baseline of
 * bench/service_loadgen: a Unix-domain listener with one blocking
 * thread per connection, strictly serial read → handle → write per
 * connection (no pipelining, no shared I/O multiplexing).
 *
 * Production code should use service::Server (run-to-completion
 * workers on one epoll set); this class exists so that server's
 * throughput claims are measured
 * against the architecture it replaced rather than asserted. The
 * wire protocol and broker semantics are identical.
 *
 * Threading: one accept-loop thread (polling the listener so it can
 * notice a stop request within ~100 ms) plus one thread per live
 * connection. Shutdown mirrors service::Server: requestStop() is
 * safe from any thread; stop() joins everything and removes the
 * socket file.
 */

#ifndef H2P_SERVICE_THREADED_SERVER_H_
#define H2P_SERVICE_THREADED_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/session_broker.h"
#include "util/socket.h"

namespace h2p {
namespace service {

/** See the file comment. */
class ThreadedServer
{
  public:
    /**
     * Bind @p socket_path and start accepting. @p broker is borrowed
     * and must outlive the server.
     */
    ThreadedServer(std::string socket_path, SessionBroker *broker,
                   int backlog = 128);

    /** Stops and joins everything. */
    ~ThreadedServer();

    ThreadedServer(const ThreadedServer &) = delete;
    ThreadedServer &operator=(const ThreadedServer &) = delete;

    /** Flag the server to stop; safe from any thread. */
    void requestStop();

    /** Stop accepting, join every connection thread, remove the
     * socket file. Must not be called from a connection thread. */
    void stop();

    /** Block until requestStop(). */
    void waitForStop();

    /** Path the server is listening on. */
    const std::string &socketPath() const { return socket_path_; }

  private:
    struct Connection
    {
        util::Fd fd;
        std::thread thread;
        /** Set by the connection thread on exit; reaped by the
         * accept loop's housekeeping. */
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(Connection *conn);
    /** Join (or salvage) finished connections; all = live ones too. */
    void reapConnections(bool all);

    std::string socket_path_;
    SessionBroker *broker_;
    util::Fd listener_;
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;
    std::mutex connections_mutex_;
    std::map<uint64_t, std::shared_ptr<Connection>> connections_;
    uint64_t next_connection_ = 1;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_THREADED_SERVER_H_
