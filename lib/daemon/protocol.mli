(** The daemon's client-edge protocol: what travels between an external
    client and the listening front door.

    Transport is the gateway's {!Tabseg_gateway.Wire} framing unchanged
    — ["TSGW"] magic, version, CRC-32, length — so one framing path
    (and one version gate) covers master↔worker RPC and the network
    edge alike; only the payload codec differs. A frame whose version
    or CRC fails to verify kills the connection (the stream has no
    resync), exactly as between master and worker.

    The conversation: the client opens with {!Hello} (name + optional
    auth token); the server answers {!Welcome} — or {!Rejected} and
    closes. After that the client pipelines {!Submit}s freely up to the
    server's advertised per-connection inflight limit, and the server
    answers each with exactly one {!Reply}, {e in submission order} —
    admission refusals included, so a refusal queued behind a slow
    request waits its turn and a client can match replies positionally.
    {!Stats_request}/{!Stats} are out-of-band (answered immediately,
    not ordered). {!Goodbye} asks for a flush-and-close.

    Trust model: framing CRC protects against corruption, not malice,
    and the payload is OCaml [Marshal] — so the listening socket must
    only face clients trusted with the process (loopback, a unix
    socket's file permissions, or the shared [auth_token]). The auth
    token gates work admission, not parsing. *)

type address =
  | Tcp of string * int  (** host, port (0 = kernel-assigned) *)
  | Unix_socket of string  (** path *)

val address_to_string : address -> string
(** ["tcp:HOST:PORT"] or ["unix:PATH"] — the form [serve] prints and
    [loadgen --connect] parses. *)

val address_of_string : string -> (address, string) result

val max_hello_client_len : int
(** Cap on {!Hello}'s [client] name, enforced server-side before the
    string reaches logs or metrics labels; longer handshakes are
    {!Rejected} and counted in [daemon.hello_oversized]. *)

val max_hello_token_len : int
(** Cap on {!Hello}'s [token], same enforcement. *)

(** A completed request as seen at the network edge: the gateway's
    answer minus nothing — degradation errors ({!type:Tabseg_gateway.Gateway.error})
    cross the wire typed, so a client can distinguish
    [Quota_exceeded {retry_after_s}] (back off and retry) from
    [Shed]/[Gateway_overloaded] (slow down) from [Worker_lost]
    (server-side incident). *)
type 'a answer = 'a Tabseg_gateway.Gateway.answer = {
  id : string;
  outcome : ('a, Tabseg_gateway.Gateway.error) result;
  cache_hit : bool;
  latency_s : float;
}

type reply = Tabseg.Api.result answer
(** What a client reads: the gateway's response with its body
    decoded. *)

type message =
  | Hello of { client : string; token : string option }
      (** first frame a client sends; [client] is a free-form name for
          the server's logs/metrics *)
  | Welcome of { server_pid : int; procs : int; max_conn_inflight : int }
      (** handshake accepted; [max_conn_inflight] is the pipelining
          window the server will enforce on this connection *)
  | Rejected of { reason : string }
      (** handshake refused (bad token, server full); the server closes
          after sending *)
  | Submit of { seq : int; request : Tabseg_serve.Service.request }
      (** the input and nothing else: no field lets a client choose how
          long the server sleeps or what it touches on disk *)
  | Reply of { seq : int; reply : reply }
  | Stats_request
  | Stats of (string * float) list
      (** counter/gauge snapshot: daemon.* and gateway.* names *)
  | Goodbye

val encode : message -> string
(** One complete frame, ready to write. A [Reply]'s result is encoded
    into its body here; {!encode_reply} makes the same frame from a body
    that already exists. *)

val encode_reply : seq:int -> Tabseg_gateway.Gateway.response -> string
(** The [Reply] frame for a gateway response, its body written as the
    worker encoded it: the daemon's reply path, which decodes nothing.
    [decode_payload] of its payload is the [Reply] with the body
    decoded. *)

val decode_payload : string -> (message, string) result
(** Unmarshal one CRC-verified frame payload (from
    {!Tabseg_gateway.Conn.read_step} / {!Tabseg_gateway.Wire.decode_frame}),
    a [Reply]'s body included. Total: a payload that is not a [message]
    is an [Error], never an exception. *)
