// The request-submission seam between transports and request processors.
//
// The router's transport, SocketServer, only needs "hand me a Request, get
// a future<Response> that resolves in submission order". The single-engine
// PlacementService, the multi-cell Router and a remote cell's
// SocketCellChannel all satisfy that contract, so the router fronts
// in-process and remote cells alike. A cell's own transport, CellServer
// (cell_server.hpp), runs on the service's loop and drives it directly.
#pragma once

#include <future>

#include "service/protocol.hpp"

namespace prvm {

class RequestSink {
 public:
  virtual ~RequestSink() = default;

  /// Enqueues one request. The returned future resolves with the response;
  /// implementations never block the caller on the actual processing
  /// (rejections may resolve immediately). Futures obtained from one
  /// connection's submissions resolve with responses for those requests in
  /// submission order — callers serialize responses by draining futures in
  /// FIFO order, and deferred futures are allowed (the drain runs them).
  virtual std::future<Response> submit(Request request) = 0;
};

}  // namespace prvm
