/**
 * @file
 * The socket front of the digital-twin service: a pool of
 * run-to-completion workers sharing one epoll set.
 *
 * Threading: `workers` threads wait on one util::Poller that holds
 * the listener and every connection fd, each armed one-shot. The
 * worker that receives a connection's event owns the connection
 * until it re-arms it: it reads raw bytes into the connection's
 * incremental FrameDecoder, executes the decoded requests against
 * the broker in arrival order and writes each response inline with
 * vectored writes — a request stays on one thread from its bytes to
 * its response. Since only the owner re-arms, a connection is served
 * by at most one worker at a time and its requests strictly in
 * order, so **pipelining** — many requests in flight on one
 * connection — keeps the serial request/response semantics of
 * thread-per-connection serving, streamed responses (sweep) flow out
 * in the order the broker emits them, and independent connections
 * spread across workers. Replies to ping, query and stats with more
 * pipelined requests behind them are queued and leave together in
 * one write; any other request flushes the queue before it runs and
 * writes each frame it emits at once.
 *
 * Flow control: a connection is not read while its requests execute
 * or while responses are queued for it, so a client that pipelines
 * without reading is held back by its own socket buffers. A slow
 * reader never stalls other connections: a short write leaves the
 * rest in the connection's write queue, armed for writability, and
 * past max_queue_bytes the connection is dropped
 * (service.backpressure_disconnects).
 *
 * Shutdown: requestStop() (idempotent; safe from any thread,
 * including a worker handling the shutdown verb and a daemon's
 * signal watcher) flags the server. Workers stop accepting and
 * reading, finish the requests they hold and keep flushing queued
 * responses, so the shutdown verb's own "ok" reaches its client.
 * stop() waits for that drain, bounded by drain_grace_ms, then
 * signals the stop eventfd, joins the workers and closes every
 * connection; in-flight simulation work stops at the next step
 * boundary through the broker's RunGuard wiring.
 */

#ifndef H2P_SERVICE_SERVER_H_
#define H2P_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/observability.h"
#include "service/protocol.h"
#include "service/session_broker.h"
#include "util/socket.h"

namespace h2p {
namespace service {

/** Tuning knobs of the socket transport. */
struct ServerOptions
{
    /** Worker threads serving connections. */
    size_t workers = 4;
    /** listen(2) backlog of the Unix-domain listener. */
    int backlog = 128;
    /**
     * Per-connection response-queue cap in bytes: a reader that
     * falls further behind than this is disconnected rather than
     * allowed to pin daemon memory.
     */
    size_t max_queue_bytes = 64u << 20;
    /** Shutdown flush grace: how long stop() lets workers drain
     * response queues after a stop request, in milliseconds. */
    int drain_grace_ms = 2000;
    /**
     * Observability sink (null = none; borrowed): gauges
     * service.connections, counts service.rx_frames /
     * service.tx_frames / service.backpressure_disconnects, and
     * records the service.queue_depth distribution (bytes queued
     * per connection at enqueue time) and service.handle_us (per
     * request, from its frame being decoded to its response being
     * written or queued).
     */
    obs::Observability *obs = nullptr;
};

/** See the file comment. */
class Server
{
  public:
    /**
     * Bind @p socket_path and start serving. @p broker is borrowed
     * and must outlive the server.
     */
    Server(std::string socket_path, SessionBroker *broker,
           ServerOptions options = {});

    /** Stops and joins everything. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Flag the server to stop: workers stop accepting and reading.
     * Safe from any thread — including a worker handling the
     * shutdown verb and a signal-watching daemon loop. Does not
     * join; the thread blocked in waitForStop() (or the destructor)
     * calls stop() for the teardown proper.
     */
    void requestStop();

    /**
     * Stop accepting, drain, join the worker threads, close every
     * connection and remove the socket file. Idempotent; must NOT be
     * called from a worker thread (it joins them) — that is what
     * requestStop() is for.
     */
    void stop();

    /** Block until requestStop() (daemon main loop parks here). */
    void waitForStop();

    /** Path the server is listening on. */
    const std::string &socketPath() const { return socket_path_; }

  private:
    /**
     * One client connection. Only the worker holding `owner` touches
     * the state below it: one-shot arming hands the connection to one
     * worker at a time, and the uncontended mutex turns that hand-off
     * into a happens-before edge that thread sanitizers can see.
     */
    struct Connection
    {
        uint64_t key = 0;
        util::Fd fd;

        std::mutex owner;
        FrameDecoder decoder;
        /** Response frames queued for the socket. */
        std::deque<std::string> writeq;
        /** Bytes across writeq (head_off already excluded). */
        size_t writeq_bytes = 0;
        /** Flushed prefix of writeq.front(). */
        size_t head_off = 0;
        /** Peer sent EOF; close once the write queue is flushed. */
        bool peer_eof = false;
        /** Dropped (I/O error, oversize frame, backpressure cap). */
        bool dead = false;
    };

    void workerLoop();
    void acceptAll();
    /** Flush, read and execute, then re-arm or close; caller holds
     * the connection's event. */
    void serve(Connection &conn);
    void readRequests(Connection &conn);
    void execute(Connection &conn, std::vector<std::string> &batch);
    /** Append a response frame; flush when @p flush or the queue is
     * large; enforce max_queue_bytes. */
    void queueFrame(Connection &conn, std::string frame, bool flush);
    void flushWrites(Connection &conn);
    void closeConnection(Connection &conn);

    /** True once no worker serves a connection and every write queue
     * is flushed. */
    bool drained();

    std::string socket_path_;
    SessionBroker *broker_;
    ServerOptions options_;

    util::Fd listener_;
    util::Poller poller_;
    /** Signalled by stop() once drained: every worker exits. */
    util::WakeupFd stop_fd_;

    std::mutex connections_mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<Connection>>
        connections_;
    uint64_t next_key_ = 2; // 0 = listener, 1 = stop fd

    std::atomic<bool> exhaustion_logged_{false};

    std::atomic<bool> stopping_{false};
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopped_ = false;

    std::vector<std::thread> workers_;

    obs::Gauge connections_gauge_;
    obs::Counter rx_frames_;
    obs::Counter tx_frames_;
    obs::Counter backpressure_disconnects_;
    obs::HistogramMetric queue_depth_;
    obs::HistogramMetric handle_us_;
};

} // namespace service
} // namespace h2p

#endif // H2P_SERVICE_SERVER_H_
