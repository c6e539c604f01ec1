module Wire = Tabseg_gateway.Wire
module Conn = Tabseg_gateway.Conn
module Gateway = Tabseg_gateway.Gateway
module Metrics = Tabseg_serve.Metrics
module Service = Tabseg_serve.Service

type config = {
  listen : Protocol.address;
  auth_token : string option;
  idle_timeout_s : float option;
  max_conn_inflight : int;
  max_connections : int;
  drain_grace_s : float;
  gateway : Gateway.config;
}

let default_config =
  {
    listen = Protocol.Unix_socket "tabseg.sock";
    auth_token = None;
    idle_timeout_s = None;
    max_conn_inflight = 32;
    max_connections = 64;
    drain_grace_s = 10.0;
    gateway = Gateway.default_config;
  }

(* One client connection. Reply ordering is the invariant everything
   here serves: [k_order] remembers submission order, [k_ready] parks
   replies that resolved out of turn (a refusal decided instantly, a
   fast request overtaking a slow one on another worker), and
   [flush_ready] only ever releases the head — so a pipelined client
   can match replies to requests positionally. *)
type conn = {
  k_chan : unit Conn.t;
  k_opened : float;
  mutable k_state : [ `Handshaking | `Active ];
  mutable k_client : string;  (* the name the Hello carried *)
  mutable k_last_in : float;  (* last inbound bytes, for idle timeout *)
  k_order : int Queue.t;  (* seqs awaiting their in-order reply *)
  k_outstanding : (int, unit) Hashtbl.t;  (* guards against seq reuse *)
  k_ready : (int, Gateway.response) Hashtbl.t;  (* resolved, not yet head *)
  mutable k_inflight : int;  (* submitted to the gateway, unanswered *)
  mutable k_closing : bool;  (* flush the outbox, then close *)
  mutable k_closed : bool;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Protocol.address;
  gateway : Gateway.t;
  registry : Metrics.t;
  mutable conns : conn list;
  mutable drain_requested : bool;  (* the SIGTERM handler flips this *)
  mutable draining : bool;
  mutable drain_deadline : float;
  mutable finished : bool;
  m_accepted : Metrics.counter;
  m_conn_closed : Metrics.counter;
  m_rejected : Metrics.counter;
  m_hello_oversized : Metrics.counter;
  m_idle_closed : Metrics.counter;
  m_requests : Metrics.counter;
  m_replies : Metrics.counter;
  m_drain_refused : Metrics.counter;
  m_proto_errors : Metrics.counter;
  m_orphaned : Metrics.counter;
  g_open : Metrics.gauge;
}

let now () = Unix.gettimeofday ()

(* A connection must complete its Hello within this many seconds, so
   half-open sockets cannot pin accept slots. *)
let handshake_timeout_s = 5.0

(* Token comparison without an early exit: the time depends only on the
   two lengths (both capped by the Hello size gate), never on how long a
   guessed prefix of the secret is right. *)
let constant_time_equal a b =
  let diff = ref (String.length a lxor String.length b) in
  for i = 0 to min (String.length a) (String.length b) - 1 do
    diff := !diff lor (Char.code a.[i] lxor Char.code b.[i])
  done;
  !diff = 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      raise (Unix.Unix_error (Unix.EINVAL, "resolve", host)))

let is_loopback addr =
  addr = Unix.inet6_addr_loopback
  || String.starts_with ~prefix:"127." (Unix.string_of_inet_addr addr)

(* A TCP listener other hosts can reach must demand a token: the daemon
   unmarshals what its clients send (docs/DAEMON.md, trust model). *)
let check_exposure config =
  match (config.listen, config.auth_token) with
  | Protocol.Tcp (host, _), None when not (is_loopback (resolve_host host)) ->
    invalid_arg
      (Printf.sprintf
         "Daemon.create: %s is not a loopback address; a TCP listener there \
          needs an auth token (--auth-token)"
         (Protocol.address_to_string config.listen))
  | _ -> ()

(* Make [path] free for a Unix listener. Nothing there: free. A socket
   that refuses a connection is a stale one from an earlier run: it is
   unlinked. A socket that accepts is a live server's, and anything else
   is not the daemon's to delete: both raise and are left as they are. *)
let claim_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
        close_quietly probe;
        true
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        close_quietly probe;
        false
      | exception e ->
        close_quietly probe;
        raise e
    in
    if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
    Unix.unlink path
  | _ -> raise (Unix.Unix_error (Unix.EEXIST, "bind", path))

let bind_listener = function
  | Protocol.Unix_socket path ->
    claim_socket_path path;
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 128
     with e ->
       close_quietly fd;
       raise e);
    (fd, Protocol.Unix_socket path)
  | Protocol.Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    let bound =
      try
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
        Unix.listen fd 128;
        match Unix.getsockname fd with
        | Unix.ADDR_INET (addr, port) ->
          Protocol.Tcp (Unix.string_of_inet_addr addr, port)
        | _ -> Protocol.Tcp (host, port)
      with e ->
        close_quietly fd;
        raise e
    in
    (fd, bound)

let create ?(config = default_config) () =
  check_exposure config;
  (* The gateway forks its fleet first, so the initial workers never
     inherit the listening socket; workers forked later (restarts)
     would — the fork hook below has them close it, plus every client
     socket, immediately in the child. A worker holding a duplicate of
     a client descriptor would otherwise keep the connection half-open
     after the daemon closes it. *)
  let gateway = Gateway.create ~config:config.gateway () in
  let listen_fd, bound =
    try bind_listener config.listen
    with e ->
      Gateway.shutdown gateway;
      raise e
  in
  Unix.set_nonblock listen_fd;
  let registry = Gateway.metrics gateway in
  let t =
    {
      cfg = config;
      listen_fd;
      bound;
      gateway;
      registry;
      conns = [];
      drain_requested = false;
      draining = false;
      drain_deadline = infinity;
      finished = false;
      m_accepted = Metrics.counter registry "daemon.connections_accepted";
      m_conn_closed = Metrics.counter registry "daemon.connections_closed";
      m_rejected = Metrics.counter registry "daemon.handshake_rejected";
      m_hello_oversized = Metrics.counter registry "daemon.hello_oversized";
      m_idle_closed = Metrics.counter registry "daemon.idle_closed";
      m_requests = Metrics.counter registry "daemon.requests";
      m_replies = Metrics.counter registry "daemon.replies";
      m_drain_refused = Metrics.counter registry "daemon.draining_refused";
      m_proto_errors = Metrics.counter registry "daemon.protocol_errors";
      m_orphaned = Metrics.counter registry "daemon.orphaned_replies";
      g_open = Metrics.gauge registry "daemon.connections_open";
    }
  in
  Gateway.set_fork_hook gateway (fun () ->
      t.listen_fd :: List.map (fun c -> Conn.fd c.k_chan) t.conns);
  t

let bound_address t = t.bound
let metrics t = t.registry
let request_drain t = t.drain_requested <- true

let stats t =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"daemon." name
      || String.starts_with ~prefix:"gateway." name)
    (Metrics.values t.registry)

(* ------------------------- connection plumbing ----------------------- *)

let close_conn t conn =
  if not conn.k_closed then begin
    conn.k_closed <- true;
    close_quietly (Conn.fd conn.k_chan);
    t.conns <- List.filter (fun c -> not (c == conn)) t.conns;
    Metrics.incr t.m_conn_closed;
    Metrics.set t.g_open (float_of_int (List.length t.conns))
  end

let send_message conn message = Conn.send conn.k_chan (Protocol.encode message)

(* Release every reply that is now at the head of the order queue. *)
let flush_ready t conn =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt conn.k_order with
    | Some seq when Hashtbl.mem conn.k_ready seq ->
      let response = Hashtbl.find conn.k_ready seq in
      Hashtbl.remove conn.k_ready seq;
      Hashtbl.remove conn.k_outstanding seq;
      ignore (Queue.pop conn.k_order);
      (* the worker's body, forwarded unread *)
      Conn.send conn.k_chan (Protocol.encode_reply ~seq response);
      Metrics.incr t.m_replies
    | _ -> continue := false
  done

(* A reply for [seq] exists (gateway completion or instant refusal):
   park it, release whatever became in-order. A closed connection's
   replies are orphans — counted and dropped; the gateway work they
   came from was never cancelled, it just has no reader any more. *)
let complete t conn seq response =
  if conn.k_closed then Metrics.incr t.m_orphaned
  else begin
    Hashtbl.replace conn.k_ready seq response;
    flush_ready t conn
  end

let refusal (request : Service.request) error =
  {
    Gateway.id = request.Service.id;
    outcome = Error error;
    cache_hit = false;
    latency_s = 0.;
  }

let protocol_error t conn =
  Metrics.incr t.m_proto_errors;
  close_conn t conn

(* Every submission takes its place in the order queue before anything
   can refuse it, so a refusal is answered in turn like any reply. *)
let admit t conn seq request =
  if Hashtbl.mem conn.k_outstanding seq then
    (* seq reuse while outstanding would make "in submission
       order" ambiguous — a protocol violation, not a refusal *)
    protocol_error t conn
  else begin
    Metrics.incr t.m_requests;
    Queue.push seq conn.k_order;
    Hashtbl.replace conn.k_outstanding seq ();
    if t.draining then begin
      Metrics.incr t.m_drain_refused;
      complete t conn seq (refusal request Gateway.Draining)
    end
    else if conn.k_inflight >= t.cfg.max_conn_inflight then
      complete t conn seq
        (refusal request
           (Gateway.Gateway_overloaded
              {
                inflight = conn.k_inflight;
                capacity = t.cfg.max_conn_inflight;
              }))
    else begin
      conn.k_inflight <- conn.k_inflight + 1;
      let on_complete response =
        conn.k_inflight <- conn.k_inflight - 1;
        complete t conn seq response
      in
      Gateway.submit t.gateway ~on_complete request
    end
  end

let handle_message t conn message =
  if not conn.k_closing then
    match (conn.k_state, message) with
    | `Handshaking, Protocol.Hello { client; token } ->
      (* Size gate first: the client name becomes a log/metrics label
         and the token is compared against ours, so neither may be
         attacker-sized. Rejected before the auth check — an oversized
         Hello is refused identically with or without a token match. *)
      let oversized =
        String.length client > Protocol.max_hello_client_len
        ||
        match token with
        | Some tok -> String.length tok > Protocol.max_hello_token_len
        | None -> false
      in
      if oversized then begin
        Metrics.incr t.m_hello_oversized;
        Metrics.incr t.m_rejected;
        send_message conn
          (Protocol.Rejected { reason = "hello client/token too long" });
        conn.k_closing <- true
      end
      else
      let authorized =
        match t.cfg.auth_token with
        | None -> true
        | Some expected ->
          Option.fold ~none:false ~some:(constant_time_equal expected) token
      in
      if not authorized then begin
        Metrics.incr t.m_rejected;
        send_message conn (Protocol.Rejected { reason = "bad auth token" });
        conn.k_closing <- true
      end
      else begin
        conn.k_state <- `Active;
        conn.k_client <- client;
        send_message conn
          (Protocol.Welcome
             {
               server_pid = Unix.getpid ();
               procs = Gateway.procs t.gateway;
               max_conn_inflight = t.cfg.max_conn_inflight;
             })
      end
    | `Handshaking, _ -> protocol_error t conn
    | `Active, Protocol.Submit { seq; request } -> admit t conn seq request
    | `Active, Protocol.Stats_request ->
      (* Out-of-band: answered immediately, never queued behind
         request replies. *)
      send_message conn (Protocol.Stats (stats t))
    | `Active, Protocol.Goodbye -> conn.k_closing <- true
    | `Active, (Protocol.Hello _ | Protocol.Welcome _ | Protocol.Rejected _
               | Protocol.Reply _ | Protocol.Stats _) ->
      protocol_error t conn

let read_conn t conn =
  let { Conn.frames; bytes_read; closed } = Conn.read_step conn.k_chan in
  (* Any inbound byte counts, not only a whole frame: a client still
     uploading a large request is not idle. *)
  if bytes_read > 0 then conn.k_last_in <- now ();
  List.iter
    (fun payload ->
      if not conn.k_closed then
        match Protocol.decode_payload payload with
        | Ok message -> handle_message t conn message
        | Error _ -> protocol_error t conn)
    frames;
  match closed with
  | None -> ()
  | Some (Conn.Protocol _) -> if not conn.k_closed then protocol_error t conn
  | Some (Conn.Eof | Conn.Reset) -> close_conn t conn

let write_conn t conn =
  if (not conn.k_closed) && Conn.pending_output conn.k_chan then
    match Conn.write_step conn.k_chan with
    | `Closed -> close_conn t conn
    | `Sent _ -> ()

let rec accept_step t =
  if not t.draining then
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_step t
    | fd, _peer ->
      Unix.set_nonblock fd;
      (match t.cfg.listen with
      | Protocol.Tcp _ -> (
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
      | Protocol.Unix_socket _ -> ());
      Metrics.incr t.m_accepted;
      let conn =
        {
          k_chan = Conn.create fd;
          k_opened = now ();
          k_state = `Handshaking;
          k_client = "";
          k_last_in = now ();
          k_order = Queue.create ();
          k_outstanding = Hashtbl.create 8;
          k_ready = Hashtbl.create 8;
          k_inflight = 0;
          k_closing = false;
          k_closed = false;
        }
      in
      t.conns <- conn :: t.conns;
      Metrics.set t.g_open (float_of_int (List.length t.conns));
      if List.length t.conns > t.cfg.max_connections then begin
        Metrics.incr t.m_rejected;
        send_message conn (Protocol.Rejected { reason = "server full" });
        conn.k_closing <- true
      end;
      accept_step t

(* ---------------------------- the event loop ------------------------- *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    t.drain_deadline <- now () +. t.cfg.drain_grace_s;
    close_quietly t.listen_fd;
    match t.bound with
    | Protocol.Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  end

let drained t =
  List.for_all
    (fun conn ->
      conn.k_inflight = 0
      && Queue.is_empty conn.k_order
      && not (Conn.pending_output conn.k_chan))
    t.conns

let finish t =
  List.iter (fun conn -> close_conn t conn) t.conns;
  Gateway.shutdown t.gateway;
  t.finished <- true

let select_timeout t at =
  let soonest = ref 0.25 in
  let note deadline =
    let dt = deadline -. at in
    if dt < !soonest then soonest := Float.max dt 0.
  in
  let gw = Gateway.next_timer_in t.gateway in
  if gw < !soonest then soonest := Float.max gw 0.;
  if t.draining then note t.drain_deadline;
  List.iter
    (fun conn ->
      match conn.k_state with
      | `Handshaking -> note (conn.k_opened +. handshake_timeout_s)
      | `Active -> (
        match t.cfg.idle_timeout_s with
        | Some idle
          when Queue.is_empty conn.k_order
               && not (Conn.pending_output conn.k_chan) ->
          note (conn.k_last_in +. idle)
        | _ -> ()))
    t.conns;
  !soonest

let expire_timers t at =
  List.iter
    (fun conn ->
      if not conn.k_closed then
        match conn.k_state with
        | `Handshaking ->
          if at -. conn.k_opened > handshake_timeout_s then begin
            Metrics.incr t.m_rejected;
            close_conn t conn
          end
        | `Active -> (
          match t.cfg.idle_timeout_s with
          | Some idle
            when Queue.is_empty conn.k_order
                 && (not (Conn.pending_output conn.k_chan))
                 && at -. conn.k_last_in > idle ->
            Metrics.incr t.m_idle_closed;
            close_conn t conn
          | _ -> ()))
    (* snapshot: close_conn edits t.conns *)
    t.conns

let turn t =
  if t.drain_requested then begin_drain t;
  let at = now () in
  let conns = t.conns in
  let gw_reads, gw_writes = Gateway.watch_fds t.gateway in
  let reads =
    (if t.draining then [] else [ t.listen_fd ])
    @ List.map (fun c -> Conn.fd c.k_chan) conns
    @ gw_reads
  in
  let writes =
    (conns
    |> List.filter (fun c -> Conn.pending_output c.k_chan)
    |> List.map (fun c -> Conn.fd c.k_chan))
    @ gw_writes
  in
  (match Unix.select reads writes [] (select_timeout t at) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _writable, _ ->
    if (not t.draining) && List.mem t.listen_fd readable then accept_step t;
    List.iter
      (fun conn ->
        if (not conn.k_closed) && List.mem (Conn.fd conn.k_chan) readable
        then read_conn t conn)
      conns);
  (* One nonblocking gateway turn: worker sockets move, completions
     fire (parking replies on their connections)... *)
  Gateway.pump ~max_wait_s:0. t.gateway;
  (* ... then everything owed to a client goes out as far as the
     sockets accept, so a resolved reply never waits for another
     select round. *)
  List.iter (fun conn -> write_conn t conn) t.conns;
  List.iter
    (fun conn ->
      if conn.k_closing
         && (not conn.k_closed)
         && not (Conn.pending_output conn.k_chan)
      then close_conn t conn)
    t.conns;
  expire_timers t (now ());
  if t.draining && (drained t || now () > t.drain_deadline) then finish t

let serve t =
  if not t.finished then begin
    (* A client vanishing mid-write must come back as EPIPE from the
       socket, never as a process-killing signal. The gateway has
       ignored SIGPIPE since [create], but the embedding process may
       have installed a handler since. *)
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let sigterm =
      Sys.signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> t.drain_requested <- true))
    in
    (* The handlers are the process's, not the daemon's: once it has
       drained, a later SIGTERM is the embedding process's again. *)
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigterm sigterm;
        Sys.set_signal Sys.sigpipe sigpipe)
      (fun () ->
        while not t.finished do
          turn t
        done)
  end

(* ------------------------ out-of-process harness --------------------- *)

type handle = { pid : int; address : Protocol.address }

let spawn ?(config = default_config) () =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:false () in
  match
    try Unix.fork ()
    with e ->
      close_quietly r;
      close_quietly w;
      raise e
  with
  | 0 ->
    close_quietly r;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    let report line =
      let line = line ^ "\n" in
      let bytes = Bytes.of_string line in
      let rec go off =
        if off < Bytes.length bytes then
          match
            (Unix.write w bytes off (Bytes.length bytes - off)
             [@tabseg.allow "blocking-io-select"
                 "one-shot startup report down a private pipe in the \
                  child, before the select loop starts; the parent is \
                  blocked reading the other end, so a stall cannot \
                  happen and nonblocking retry would just spin"])
          with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      in
      (try go 0 with Unix.Unix_error _ -> ());
      close_quietly w
    in
    (match create ~config () with
    | t ->
      report ("OK " ^ Protocol.address_to_string (bound_address t));
      (try serve t with _ -> Unix._exit 97);
      Unix._exit 0
    | exception e ->
      report ("ERR " ^ Printexc.to_string e);
      Unix._exit 96)
  | pid ->
    close_quietly w;
    let line = Buffer.create 64 in
    let chunk = Bytes.create 1 in
    let rec read_line () =
      match
        (Unix.read r chunk 0 1
         [@tabseg.allow "blocking-io-select"
             "spawn's parent half deliberately blocks until the child \
              reports its bound address (or dies, closing the pipe — \
              EOF unblocks us); this runs before the caller's select \
              loop, not inside one"])
      with
      | 0 -> ()
      | _ ->
        if Bytes.get chunk 0 <> '\n' then begin
          Buffer.add_char line (Bytes.get chunk 0);
          read_line ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
    in
    read_line ();
    close_quietly r;
    let line = Buffer.contents line in
    if String.length line > 3 && String.sub line 0 3 = "OK " then
      let addr = String.sub line 3 (String.length line - 3) in
      match Protocol.address_of_string addr with
      | Ok address -> { pid; address }
      | Error e ->
        ignore (Unix.waitpid [] pid);
        failwith ("daemon spawn: bad address report: " ^ e)
    else begin
      ignore (Unix.waitpid [] pid);
      failwith
        ("daemon spawn failed: "
        ^ if line = "" then "no report (child died)" else line)
    end

let stop handle =
  (try Unix.kill handle.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] handle.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill handle.pid Sys.sigkill with Unix.Unix_error _ -> ());
        match Unix.waitpid [] handle.pid with
        | _, _ -> 124
        | exception Unix.Unix_error _ -> 124
      end
      else begin
        Wire.sleep_s 0.01;
        wait ()
      end
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 125
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> 0
  in
  wait ()
