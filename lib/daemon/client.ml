module Wire = Tabseg_gateway.Wire
module Conn = Tabseg_gateway.Conn
module Service = Tabseg_serve.Service

type error =
  | Connection_closed
  | Protocol_failure of string

type t = {
  fd : Unix.file_descr;
  conn : unit Conn.t;  (* the inbound frame reader; writes stay direct *)
  inbox : string Queue.t;  (* payloads read ahead of the one asked for *)
  mutable broken : error option;  (* how the connection ended, once it has *)
  mutable next_seq : int;
  mutable srv_window : int;
  mutable srv_pid : int;
  mutable closed : bool;
}

let error_message = function
  | Connection_closed -> "connection closed by the server"
  | Protocol_failure why -> "protocol failure: " ^ why

type connect_error =
  | Connect_failed of string
  | Rejected of string
  | Handshake_failed of error

let connect_error_message = function
  | Connect_failed why -> "connect failed: " ^ why
  | Rejected reason -> "handshake rejected: " ^ reason
  | Handshake_failed e -> "handshake failed: " ^ error_message e

(* Blocking IO with EINTR retry; peer death comes back as a value. *)

let write_frame t frame =
  let bytes = Bytes.unsafe_of_string frame in
  let len = Bytes.length bytes in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write t.fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Error Connection_closed
  in
  go 0

(* One read through the blocking descriptor can deliver several frames
   (pipelined replies): queue them and hand them out one per call, then
   report how the connection ended, if it has. *)
let rec read_message t =
  match Queue.take_opt t.inbox with
  | Some payload -> (
    match Protocol.decode_payload payload with
    | Ok message -> Ok message
    | Error why -> Error (Protocol_failure why))
  | None -> (
    match t.broken with
    | Some e -> Error e
    | None ->
      let { Conn.frames; closed; _ } = Conn.read_step t.conn in
      List.iter (fun payload -> Queue.push payload t.inbox) frames;
      (match closed with
      | None -> ()
      | Some (Conn.Eof | Conn.Reset) -> t.broken <- Some Connection_closed
      | Some (Conn.Protocol e) ->
        t.broken <- Some (Protocol_failure (Wire.decode_error_message e)));
      read_message t)

let connect ?(client = "client") ?auth_token address =
  (* A server hanging up between our read and our next write must come
     back as EPIPE (mapped to [Connection_closed]), not as a
     process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock () =
    match address with
    | Protocol.Unix_socket path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (fd, Unix.ADDR_UNIX path)
    | Protocol.Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      (fd, Unix.ADDR_INET (addr, port))
  in
  match sock () with
  | exception e -> Error (Connect_failed (Printexc.to_string e))
  | fd, addr -> (
    let rec do_connect () =
      try Unix.connect fd addr
      with Unix.Unix_error (Unix.EINTR, _, _) -> do_connect ()
    in
    match do_connect () with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Connect_failed (Unix.error_message err))
    | () -> (
      let t =
        {
          fd;
          conn = Conn.create fd;
          inbox = Queue.create ();
          broken = None;
          next_seq = 0;
          srv_window = 1;
          srv_pid = 0;
          closed = false;
        }
      in
      let fail e =
        t.closed <- true;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error e
      in
      match
        write_frame t
          (Protocol.encode (Protocol.Hello { client; token = auth_token }))
      with
      | Error e -> fail (Handshake_failed e)
      | Ok () -> (
        match read_message t with
        | Error e -> fail (Handshake_failed e)
        | Ok (Protocol.Welcome { server_pid; max_conn_inflight; _ }) ->
          t.srv_window <- max max_conn_inflight 1;
          t.srv_pid <- server_pid;
          Ok t
        | Ok (Protocol.Rejected { reason }) -> fail (Rejected reason)
        | Ok _ ->
          fail
            (Handshake_failed
               (Protocol_failure "unexpected frame during handshake")))))

let window t = t.srv_window
let server_pid t = t.srv_pid

let send_submit t request =
  if t.closed then Error Connection_closed
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    match
      write_frame t (Protocol.encode (Protocol.Submit { seq; request }))
    with
    | Ok () -> Ok seq
    | Error e -> Error e
  end

let read_reply t =
  if t.closed then Error Connection_closed
  else
    match read_message t with
    | Ok (Protocol.Reply { seq; reply }) -> Ok (seq, reply)
    | Ok _ -> Error (Protocol_failure "expected a Reply frame")
    | Error e -> Error e

let submit t request =
  match send_submit t request with
  | Error e -> Error e
  | Ok seq -> (
    match read_reply t with
    | Error e -> Error e
    | Ok (got, reply) ->
      if got = seq then Ok reply
      else Error (Protocol_failure "reply out of order"))

let submit_all t ?window:win requests =
  let win = max 1 (Option.value win ~default:t.srv_window) in
  let replies = ref [] in
  let outstanding = Queue.create () in
  let read_one () =
    match read_reply t with
    | Error e -> Error e
    | Ok (seq, reply) -> (
      match Queue.take_opt outstanding with
      | Some expected when expected = seq ->
        replies := reply :: !replies;
        Ok ()
      | Some _ | None -> Error (Protocol_failure "reply out of order"))
  in
  let rec send = function
    | [] -> Ok ()
    | request :: rest -> (
      let next () =
        match send_submit t request with
        | Error e -> Error e
        | Ok seq ->
          Queue.push seq outstanding;
          send rest
      in
      if Queue.length outstanding >= win then
        match read_one () with Error e -> Error e | Ok () -> next ()
      else next ())
  in
  let rec drain () =
    if Queue.is_empty outstanding then Ok ()
    else match read_one () with Error e -> Error e | Ok () -> drain ()
  in
  match send requests with
  | Error e -> Error e
  | Ok () -> (
    match drain () with
    | Error e -> Error e
    | Ok () -> Ok (List.rev !replies))

let stats t =
  if t.closed then Error Connection_closed
  else
    match write_frame t (Protocol.encode Protocol.Stats_request) with
    | Error e -> Error e
    | Ok () -> (
      match read_message t with
      | Ok (Protocol.Stats stats) -> Ok stats
      | Ok _ -> Error (Protocol_failure "expected a Stats frame")
      | Error e -> Error e)

let close t =
  if not t.closed then begin
    t.closed <- true;
    ignore (write_frame t (Protocol.encode Protocol.Goodbye));
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
