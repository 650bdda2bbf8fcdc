#include "service/server.h"

#include <unistd.h>

#include <chrono>
#include <utility>

#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kListenerKey = 0;
constexpr uint64_t kStopKey = 1;

constexpr uint32_t kArmRead = util::Poller::kRead | util::Poller::kOneShot;
constexpr uint32_t kArmWrite =
    util::Poller::kWrite | util::Poller::kOneShot;

/** How long accepting pauses after fd exhaustion. */
constexpr int kAcceptBackoffMs = 50;

/** Queued response bytes that trigger a flush mid-batch. */
constexpr size_t kFlushBytes = 64 * 1024;

} // namespace

Server::Server(std::string socket_path, SessionBroker *broker,
               ServerOptions options)
    : socket_path_(std::move(socket_path)), broker_(broker),
      options_(options)
{
    H2P_ASSERT(broker_ != nullptr, "server needs a broker");
    expect(options_.workers > 0, "server needs at least one worker");
    if (options_.obs != nullptr) {
        obs::MetricsRegistry &m = options_.obs->metrics();
        connections_gauge_ = m.gauge("service.connections");
        rx_frames_ = m.counter("service.rx_frames");
        tx_frames_ = m.counter("service.tx_frames");
        backpressure_disconnects_ =
            m.counter("service.backpressure_disconnects");
        queue_depth_ = m.histogram(
            "service.queue_depth", 0.0,
            static_cast<double>(options_.max_queue_bytes), 64);
        handle_us_ = m.histogram("service.handle_us", 0.0, 1e5, 100);
    }
    listener_ = util::unixListen(socket_path_, options_.backlog);
    util::setNonBlocking(listener_);
    poller_.add(listener_, kArmRead, kListenerKey);
    poller_.add(stop_fd_.fd(), util::Poller::kRead, kStopKey);
    for (size_t i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Server::~Server()
{
    stop();
}

void
Server::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // Nobody needs waking: each worker sees the flag at its next
    // event, and stop() waits for the drain.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_cv_.notify_all();
}

void
Server::stop()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options_.drain_grace_ms);
    while (!drained() && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop_fd_.signal();
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto &entry : connections_)
            entry.second->fd.shutdownBoth();
        connections_.clear();
        connections_gauge_.set(0.0);
    }
    listener_.close();
    ::unlink(socket_path_.c_str());
}

void
Server::waitForStop()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

bool
Server::drained()
{
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto &entry : connections_)
            conns.push_back(entry.second);
    }
    for (const auto &conn : conns) {
        // A worker that takes this connection after the try_lock
        // observes stopping_ and neither reads nor queues.
        std::unique_lock<std::mutex> own(conn->owner, std::try_to_lock);
        if (!own.owns_lock() || !conn->writeq.empty())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Workers.

void
Server::workerLoop()
{
    for (;;) {
        const uint64_t key = poller_.wait();
        if (key == kStopKey)
            return; // Stays readable: every worker sees it.
        if (key == kListenerKey) {
            acceptAll();
            continue;
        }
        std::shared_ptr<Connection> conn;
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            auto it = connections_.find(key);
            if (it != connections_.end())
                conn = it->second;
        }
        if (conn)
            serve(*conn);
    }
}

void
Server::acceptAll()
{
    if (stopping_.load())
        return; // No new connections: the listener stays disarmed.
    for (;;) {
        util::Fd fd;
        const util::AcceptStatus status =
            util::acceptConnection(listener_, fd, /*non_blocking=*/true);
        if (status == util::AcceptStatus::WouldBlock)
            break;
        if (status == util::AcceptStatus::Exhausted) {
            // The pending connection keeps the listener readable, so
            // re-arming at once would spin: pause accepting first.
            if (!exhaustion_logged_.exchange(true))
                warn("service: out of file descriptors; accepting "
                     "paused for ",
                     kAcceptBackoffMs, " ms at a time");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kAcceptBackoffMs));
            break;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(fd);
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            conn->key = next_key_++;
            connections_.emplace(conn->key, conn);
            connections_gauge_.set(
                static_cast<double>(connections_.size()));
        }
        poller_.add(conn->fd, kArmRead, conn->key);
    }
    poller_.modify(listener_, kArmRead, kListenerKey);
}

void
Server::serve(Connection &conn)
{
    std::lock_guard<std::mutex> own(conn.owner);
    if (!conn.writeq.empty())
        flushWrites(conn);
    if (!conn.dead && !conn.peer_eof && conn.writeq.empty() &&
        !stopping_.load())
        readRequests(conn);
    if (conn.dead || (conn.peer_eof && conn.writeq.empty())) {
        closeConnection(conn);
        return;
    }
    // Re-arming hands the connection to whichever worker gets its
    // next event, so it is the last thing done here.
    if (!conn.writeq.empty())
        poller_.modify(conn.fd, kArmWrite, conn.key);
    else if (!stopping_.load())
        poller_.modify(conn.fd, kArmRead, conn.key);
    // Else draining with nothing queued: it stays disarmed until
    // stop() closes it.
}

void
Server::readRequests(Connection &conn)
{
    char buf[64 * 1024];
    std::vector<std::string> batch;
    for (;;) {
        size_t got = 0;
        util::IoStatus status;
        try {
            status = util::readSome(conn.fd, buf, sizeof(buf), got);
        } catch (const Error &e) {
            debug("service connection read failed: ", e.what());
            conn.dead = true;
            return;
        }
        if (status == util::IoStatus::WouldBlock)
            return;
        if (status == util::IoStatus::PeerClosed) {
            // Close once what it asked for is flushed.
            conn.peer_eof = true;
            return;
        }
        try {
            conn.decoder.feed(buf, got);
            std::string payload;
            while (conn.decoder.next(payload))
                batch.push_back(std::move(payload));
        } catch (const Error &e) {
            // Oversized length prefix: framing is unrecoverable —
            // drop the connection.
            debug("service connection dropped: ", e.what());
            conn.dead = true;
            return;
        }
        execute(conn, batch);
        // Only a full buffer can have left bytes behind; otherwise
        // the re-armed epoll interest reports the next request.
        if (got < sizeof(buf) || conn.dead || !conn.writeq.empty() ||
            stopping_.load())
            return;
    }
}

void
Server::execute(Connection &conn, std::vector<std::string> &batch)
{
    if (batch.empty())
        return;
    rx_frames_.add(batch.size());
    const bool timed = handle_us_.valid();
    const Clock::time_point decoded_at =
        timed ? Clock::now() : Clock::time_point{};
    // A quick verb's reply with more requests behind it stays queued,
    // to leave with theirs in one vectored write; every other request
    // flushes the queue before it runs and after each frame it emits,
    // so no reply waits behind a simulation this connection runs and
    // sweep frames leave as the broker emits them.
    bool flush = true;
    const SessionBroker::Emit emit =
        [this, &conn, &flush](const Response &response) {
            queueFrame(conn, encodeFrame(response.serialize()), flush);
        };
    for (size_t i = 0; i < batch.size() && !conn.dead; ++i) {
        Request request;
        bool parsed = true;
        try {
            request = Request::parse(batch[i]);
        } catch (const Error &e) {
            // Malformed header: answer and keep the connection —
            // framing is still intact.
            flush = true;
            emit(Response::error(e.what()));
            parsed = false;
        }
        if (parsed) {
            const bool quick = SessionBroker::isQuick(request.verb);
            if (!quick)
                flushWrites(conn);
            flush = !quick || i + 1 == batch.size();
            broker_->handle(request, emit);
        }
        if (timed)
            handle_us_.observe(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          decoded_at)
                    .count());
    }
    batch.clear();
}

void
Server::queueFrame(Connection &conn, std::string frame, bool flush)
{
    if (conn.dead)
        return;
    tx_frames_.add(1);
    conn.writeq_bytes += frame.size();
    conn.writeq.push_back(std::move(frame));
    queue_depth_.observe(static_cast<double>(conn.writeq_bytes));
    if (flush || conn.writeq_bytes >= kFlushBytes)
        flushWrites(conn);
    if (!conn.dead && conn.writeq_bytes > options_.max_queue_bytes) {
        // A reader this far behind is treated as gone: disconnect
        // instead of letting one slow client pin daemon memory.
        backpressure_disconnects_.add(1);
        debug("service connection dropped: response queue exceeded ",
              options_.max_queue_bytes, " bytes");
        conn.dead = true;
    }
}

void
Server::flushWrites(Connection &conn)
{
    if (conn.dead)
        return;
    while (!conn.writeq.empty()) {
        util::ByteRange bufs[16];
        size_t nbufs = 0;
        size_t offset = conn.head_off;
        for (const std::string &frame : conn.writeq) {
            if (nbufs == 16)
                break;
            bufs[nbufs].data = frame.data() + offset;
            bufs[nbufs].size = frame.size() - offset;
            offset = 0;
            ++nbufs;
        }
        size_t written = 0;
        util::IoStatus status;
        try {
            status =
                util::writevSome(conn.fd, bufs, nbufs, written);
        } catch (const Error &e) {
            debug("service connection write failed: ", e.what());
            conn.dead = true;
            return;
        }
        if (status == util::IoStatus::WouldBlock)
            return;
        if (status == util::IoStatus::PeerClosed) {
            conn.dead = true;
            return;
        }
        conn.writeq_bytes -= written;
        while (written > 0 && !conn.writeq.empty()) {
            const size_t head_left =
                conn.writeq.front().size() - conn.head_off;
            if (written >= head_left) {
                written -= head_left;
                conn.head_off = 0;
                conn.writeq.pop_front();
            } else {
                conn.head_off += written;
                written = 0;
            }
        }
    }
}

void
Server::closeConnection(Connection &conn)
{
    poller_.remove(conn.fd);
    conn.fd.shutdownBoth();
    conn.fd.close();
    conn.dead = true;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.erase(conn.key);
    connections_gauge_.set(static_cast<double>(connections_.size()));
}

} // namespace service
} // namespace h2p
