#include "service/threaded_server.h"

#include <unistd.h>

#include <chrono>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace service {

ThreadedServer::ThreadedServer(std::string socket_path,
                               SessionBroker *broker, int backlog)
    : socket_path_(std::move(socket_path)), broker_(broker)
{
    H2P_ASSERT(broker_ != nullptr, "server needs a broker");
    listener_ = util::unixListen(socket_path_, backlog);
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

ThreadedServer::~ThreadedServer()
{
    stop();
}

void
ThreadedServer::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // Unblock the accept loop (poll returns readable on a shut-down
    // listener, accept then fails cleanly) and every blocked read.
    listener_.shutdownBoth();
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto &entry : connections_)
            entry.second->fd.shutdownBoth();
    }
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_cv_.notify_all();
}

void
ThreadedServer::stop()
{
    requestStop();
    if (accept_thread_.joinable())
        accept_thread_.join();
    reapConnections(/*all=*/true);
    listener_.close();
    ::unlink(socket_path_.c_str());
}

void
ThreadedServer::waitForStop()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

void
ThreadedServer::reapConnections(bool all)
{
    // Collect the threads to join outside the lock: a connection
    // thread removes nothing itself, it only flags `done`.
    std::vector<std::shared_ptr<Connection>> joinable;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if (all || it->second->done.load()) {
                joinable.push_back(it->second);
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &conn : joinable)
        if (conn->thread.joinable())
            conn->thread.join();
}

void
ThreadedServer::acceptLoop()
{
    while (!stopping_.load()) {
        // Poll with a timeout so a stop request is noticed even when
        // no client ever connects; also the housekeeping heartbeat.
        if (!util::waitReadable(listener_, 100)) {
            reapConnections(/*all=*/false);
            continue;
        }
        util::Fd fd;
        const util::AcceptStatus status =
            util::acceptConnection(listener_, fd, /*non_blocking=*/false);
        if (status == util::AcceptStatus::Exhausted) {
            // The listener stays readable: back off, do not spin.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
        }
        if (status != util::AcceptStatus::Accepted)
            continue; // Listener torn down: loop exits via stopping_.
        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(fd);
        uint64_t id;
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            id = next_connection_++;
            connections_[id] = conn;
        }
        conn->thread = std::thread(
            [this, conn] { serveConnection(conn.get()); });
        reapConnections(/*all=*/false);
    }
}

void
ThreadedServer::serveConnection(Connection *conn)
{
    std::string payload;
    try {
        while (!stopping_.load() && readFrame(conn->fd, payload)) {
            Request request;
            try {
                request = Request::parse(payload);
            } catch (const Error &e) {
                // Malformed header: answer and keep the connection —
                // framing is still intact.
                writeFrame(conn->fd,
                           Response::error(e.what()).serialize());
                continue;
            }
            broker_->handle(request, [&conn](const Response &r) {
                writeFrame(conn->fd, r.serialize());
            });
        }
    } catch (const Error &e) {
        // Oversized/truncated frame or a peer that vanished
        // mid-write: this connection is done, the daemon is not.
        debug("service connection closed: ", e.what());
    }
    conn->fd.shutdownBoth();
    conn->done.store(true);
}

} // namespace service
} // namespace h2p
