// Client-facing side of a live replica (§4.2: permissionless clients
// submit transactions to permissioned replicas; the paper uses gRPC
// here, we use the same length-prefix framed TCP as the replica links).
// The gateway is a second listener on the node's event loop: any client
// may connect, each frame is one serialized signed transaction, and the
// gateway answers each submission with a one-byte ACK (accepted /
// rejected) so wallets can retry elsewhere.
#pragma once

#include <atomic>
#include <functional>
#include <unordered_map>

#include "chain/tx.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace zlb::net {

enum class SubmitStatus : std::uint8_t {
  kAccepted = 1,
  kMalformed = 2,
  kRejected = 3,  ///< structurally valid but refused (e.g. queue full)
};

struct GatewayStats {
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;
  std::uint64_t malformed = 0;
  std::uint64_t rejected = 0;
};

/// The gateway's live counters: bumped on the loop thread with relaxed
/// atomics, so stats() may be read from any thread while the loop runs
/// (each counter is monotonic; never torn).
struct AtomicGatewayStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> rejected{0};

  [[nodiscard]] GatewayStats snapshot() const {
    GatewayStats s;
    s.connections = connections.load(std::memory_order_relaxed);
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.malformed = malformed.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    return s;
  }
};

class ClientGateway {
 public:
  /// Decides whether to accept a structurally valid transaction
  /// (typically: enqueue into the node's mempool and return true).
  using SubmitHandler = std::function<bool(const chain::Transaction&)>;

  ClientGateway(EventLoop& loop, std::uint16_t port, SubmitHandler handler);
  ~ClientGateway();

  ClientGateway(const ClientGateway&) = delete;
  ClientGateway& operator=(const ClientGateway&) = delete;

  [[nodiscard]] bool listening() const { return listener_.valid(); }
  [[nodiscard]] std::uint16_t local_port() const { return port_; }
  /// Thread-safe snapshot of the counters.
  [[nodiscard]] GatewayStats stats() const { return stats_.snapshot(); }

 private:
  struct Conn {
    Fd fd;
    FrameDecoder decoder;
    Bytes outbuf;
    std::size_t out_offset = 0;
  };

  void on_listener_ready();
  void on_conn_event(int fd, bool readable, bool writable);
  void drop(int fd);
  void reply(Conn& conn, SubmitStatus status);
  void update_interest(const Conn& conn);

  EventLoop& loop_;
  SubmitHandler handler_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::unordered_map<int, Conn> conns_;
  AtomicGatewayStats stats_;
};

/// Blocking client for wallets/tools and tests: connects to a gateway,
/// submits transactions one at a time and waits for each ACK.
class GatewayClient {
 public:
  /// nullopt on connection failure.
  [[nodiscard]] static std::optional<GatewayClient> connect(
      std::uint16_t port);

  /// Sends `tx` and waits (blocking, with timeout) for the ACK.
  [[nodiscard]] std::optional<SubmitStatus> submit(
      const chain::Transaction& tx,
      Duration timeout = std::chrono::seconds(5));

 private:
  explicit GatewayClient(Fd fd) : fd_(std::move(fd)) {}

  Fd fd_;
  FrameDecoder decoder_;
};

}  // namespace zlb::net
