(** The listening front door: a TCP / Unix-domain-socket server that
    fronts the forking {!Tabseg_gateway.Gateway} with the {!Protocol}
    client edge.

    One process, one select loop, no threads: the loop multiplexes the
    listening socket, every client connection (through the shared
    {!Tabseg_gateway.Conn} buffer — the same framing path the master
    uses toward its workers) and the gateway's own worker sockets
    (via {!Tabseg_gateway.Gateway.watch_fds}), and gives the gateway a
    nonblocking {!Tabseg_gateway.Gateway.pump} every turn.

    Connection lifecycle: nonblocking accept → {!Protocol.Hello}
    handshake (frame version gate + optional shared auth token, within
    5 s, so half-open sockets cannot pin accept slots) → pipelined
    {!Protocol.Submit}s → idle timeout or {!Protocol.Goodbye} → close.

    Ordering and limits: replies to one connection come back in strict
    submission order — a refusal decided instantly still queues behind
    the slower requests submitted before it. At most
    [max_conn_inflight] requests per connection may be outstanding;
    the excess is refused in-order with [Gateway_overloaded] carrying
    the per-connection window as its capacity. A client that
    disconnects mid-request just orphans its replies (counted, never
    wedging the gateway).

    Drain: on SIGTERM the daemon stops accepting, answers late
    [Submit]s with a typed [Draining] reply, lets in-flight work
    finish (bounded by [drain_grace_s]), flushes, shuts the gateway
    down and returns from {!serve}. [Quota_exceeded {retry_after_s}]
    likewise crosses the wire typed — the network edge's
    429-with-Retry-After. *)

type config = {
  listen : Protocol.address;
      (** [Tcp (host, 0)] binds a kernel-assigned port — read the real
          one back with {!bound_address} *)
  auth_token : string option;
      (** when set, a [Hello] must carry exactly this token or the
          handshake is [Rejected] *)
  idle_timeout_s : float option;
      (** close a connection this long without inbound bytes and with
          nothing outstanding; [None]: never *)
  max_conn_inflight : int;  (** pipelining window per connection (default 32) *)
  max_connections : int;
      (** accept cap; above it new handshakes are [Rejected] with
          "server full" (default 64) *)
  drain_grace_s : float;
      (** SIGTERM drain budget before in-flight work is abandoned and
          the gateway shut down anyway (default 10 s) *)
  gateway : Tabseg_gateway.Gateway.config;
}

val default_config : config
(** Unix socket ["tabseg.sock"] in the working directory, no auth, no
    idle timeout, window 32, 64 connections. *)

type t

val create : ?config:config -> unit -> t
(** Bind + listen, fork the gateway fleet. Raises [Unix.Unix_error]
    when the address cannot be bound (a stale Unix-socket path is
    unlinked first). *)

val bound_address : t -> Protocol.address
(** The address actually listened on — [Tcp] with the real port. *)

val metrics : t -> Tabseg_serve.Metrics.t
(** The shared registry: [gateway.*] plus [daemon.*] (connections
    accepted/open/closed, handshake rejections, idle closes, requests,
    replies, draining refusals, protocol errors, orphaned replies). *)

val stats : t -> (string * float) list
(** The counter/gauge snapshot {!Protocol.Stats} carries: every
    [daemon.*] and [gateway.*] counter and gauge in {!metrics}, sorted
    by name (each slot's [gateway.worker<i>.*] gauges included, once
    the fleet has set them). Histograms are left out. *)

val serve : t -> unit
(** Install the SIGTERM drain handler, ignore SIGPIPE, and run the select
    loop until a drain completes. Returns with every connection closed,
    the gateway shut down and both signals' former dispositions
    restored; idempotent to call once. *)

val request_drain : t -> unit
(** What the SIGTERM handler flips — exposed so an embedding process
    (or test) can initiate the same graceful drain programmatically. *)

(** {2 Out-of-process harness}

    Tests, the smoke target and the bench all want a daemon that is a
    real separate process (signals, EOFs and drains behave exactly as
    in production) without shelling out to the CLI. *)

type handle = { pid : int; address : Protocol.address }

val spawn : ?config:config -> unit -> handle
(** Fork a child that binds, reports its bound address back over a
    pipe, and [serve]s. Returns once the child is listening — a
    connect after [spawn] cannot race the bind. *)

val stop : handle -> int
(** SIGTERM the child (graceful drain) and wait for it; returns the
    exit code (0 = drained cleanly; 124 = the child had to be
    SIGKILLed after 30 s). Idempotent. *)
