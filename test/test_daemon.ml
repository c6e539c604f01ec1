(* The daemon front door: address parsing, handshake gates (auth token,
   frame version), idle-timeout close (counting bytes, so a slow upload
   is not idle), strict per-connection reply ordering under latency
   skew (byte-identical to the in-process reference), the
   per-connection inflight window as typed in-order refusals, quota
   rejections crossing the wire with their retry-after hint, a client
   disconnecting mid-request without wedging the gateway, SIGTERM drain
   semantics, a TCP listener, and the load generator driving all of
   it. Every daemon here is a real separate process (Daemon.spawn). *)

open Tabseg_serve
open Tabseg_daemon
module Gw = Tabseg_gateway.Gateway
module GWire = Tabseg_gateway.Wire
module GConn = Tabseg_gateway.Conn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A page of the VerticalPages demo site as a segmentation input. *)
let vertical_pages_input page_index =
  let open Tabseg_sitegen in
  let generated = Sites.generate (Sites.find "VerticalPages") in
  let list_pages, detail_pages =
    Sites.segmentation_input generated ~page_index
  in
  { Tabseg.Pipeline.list_pages; detail_pages }

let small_input = lazy (vertical_pages_input 0)

(* The daemon's service runs the default (probabilistic) method; a
   reference must match it: as a value (served results must equal it)
   and as its rendering. *)
let segment input =
  match Tabseg.Api.segment_result ~method_:Tabseg.Api.Probabilistic input with
  | Ok result -> result
  | Error error -> failwith (Tabseg.Api.input_error_message error)

let render (result : Tabseg.Api.result) =
  Format.asprintf "%a" Tabseg.Segmentation.pp result.Tabseg.Api.segmentation

let reference_result = lazy (segment (Lazy.force small_input))
let reference = lazy (render (Lazy.force reference_result))

let render_reply (reply : Protocol.reply) =
  match reply.Protocol.outcome with
  | Ok result -> render result
  | Error error -> "ERROR: " ^ Gw.error_message error

let request ?(site = "daemon-test") id =
  { Service.id; site; input = Lazy.force small_input }

let temp_sock =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tabseg_dm_%d_%d.sock" (Unix.getpid ()) !counter)

let daemon_config ?(procs = 1) ?auth_token ?idle_timeout_s ?(inflight = 32)
    ?site_quota ?(service = Service.default_config) () =
  {
    Daemon.default_config with
    Daemon.listen = Protocol.Unix_socket (temp_sock ());
    auth_token;
    idle_timeout_s;
    max_conn_inflight = inflight;
    gateway =
      { Gw.default_config with Gw.procs; site_quota_rps = site_quota; service };
  }

(* Workers that sleep [fetch_s] inside every request: with no cache, no
   memo hit skips the sleep. This is how these tests keep a request in
   flight; nothing a client sends can. *)
let slow_service fetch_s =
  {
    Service.default_config with
    Service.cache = None;
    simulated_fetch_s = fetch_s;
  }

let with_daemon config f =
  let handle = Daemon.spawn ~config () in
  Fun.protect ~finally:(fun () -> ignore (Daemon.stop handle)) (fun () ->
      f handle)

let connect_exn ?client ?auth_token address =
  match Client.connect ?client ?auth_token address with
  | Ok c -> c
  | Error e -> Alcotest.fail (Client.connect_error_message e)

let submit_exn client req =
  match Client.submit client req with
  | Ok reply -> reply
  | Error e -> Alcotest.fail (Client.error_message e)

(* ---------------------------- protocol ------------------------------ *)

let test_address_parsing () =
  let roundtrip address =
    match Protocol.address_of_string (Protocol.address_to_string address) with
    | Ok back -> check_bool "address roundtrips" true (back = address)
    | Error e -> Alcotest.fail e
  in
  roundtrip (Protocol.Tcp ("127.0.0.1", 8080));
  roundtrip (Protocol.Tcp ("::1", 9));
  roundtrip (Protocol.Unix_socket "/tmp/some/tabseg.sock");
  (match Protocol.address_of_string "tcp:localhost:7070" with
  | Ok (Protocol.Tcp ("localhost", 7070)) -> ()
  | _ -> Alcotest.fail "tcp:localhost:7070 should parse");
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "%S is rejected" bad)
        true
        (Result.is_error (Protocol.address_of_string bad)))
    [ ""; "nope"; "ftp:x:1"; "tcp:"; "tcp:host"; "tcp:host:notaport";
      "tcp::8080"; "tcp:host:70000"; "unix:" ]

(* Every gateway error, one of each constructor (and of each service
   error inside [Service_error]). *)
let every_gateway_error =
  [
    Gw.Worker_lost "socket closed";
    Gw.Gateway_overloaded { inflight = 9; capacity = 8 };
    Gw.Quota_exceeded { site = "s"; retry_after_s = 0.25 };
    Gw.Shed { predicted_s = 2.; deadline_s = 1. };
    Gw.Deadline_exceeded;
    Gw.Draining;
    Gw.Service_error (Service.Worker_crashed "boom");
    Gw.Service_error (Service.Invalid_input Tabseg.Api.Blank_list_page);
  ]

let decode_frame_exn frame =
  match GWire.decode_frame frame with
  | `Frame (payload, consumed) ->
    check_int "whole frame consumed" (String.length frame) consumed;
    (match Protocol.decode_payload payload with
    | Ok message -> message
    | Error e -> Alcotest.fail e)
  | `Need_more | `Error _ -> Alcotest.fail "frame did not decode"

let test_message_roundtrip () =
  let reply outcome =
    Protocol.Reply
      {
        seq = 5;
        reply = { Protocol.id = "r5"; outcome; cache_hit = true; latency_s = 0.5 };
      }
  in
  let messages =
    [
      Protocol.Hello { client = "t"; token = Some "secret" };
      Protocol.Welcome { server_pid = 1; procs = 2; max_conn_inflight = 32 };
      Protocol.Rejected { reason = "bad auth token" };
      Protocol.Submit { seq = 3; request = request "r3" };
      reply (Ok (Lazy.force reference_result));
      Protocol.Stats_request;
      Protocol.Stats [ ("daemon.requests", 12.) ];
      Protocol.Goodbye;
    ]
    @ List.map (fun error -> reply (Error error)) every_gateway_error
  in
  List.iter
    (fun message ->
      check_bool "message roundtrips" true
        (decode_frame_exn (Protocol.encode message) = message))
    messages;
  (* The daemon's path: a gateway response's body written as it is. *)
  List.iter
    (fun outcome ->
      let response =
        { Gw.id = "r6"; outcome; cache_hit = false; latency_s = 0.25 }
      in
      match decode_frame_exn (Protocol.encode_reply ~seq:6 response) with
      | Protocol.Reply { seq; reply } ->
        check_int "reply seq" 6 seq;
        check_bool "forwarded body decodes to the reply" true
          (reply
          = {
              Protocol.id = "r6";
              outcome = Gw.result response;
              cache_hit = false;
              latency_s = 0.25;
            })
      | _ -> Alcotest.fail "expected a Reply")
    (Ok (Tabseg_store.Codec.encode_body (Lazy.force reference_result))
    :: List.map (fun error -> Error error) every_gateway_error)

(* --------------------------- handshake ------------------------------ *)

let test_auth_token () =
  with_daemon (daemon_config ~auth_token:"hunter2" ()) @@ fun handle ->
  (* No token: rejected before any work is admitted. *)
  (match Client.connect handle.Daemon.address with
  | Error (Client.Rejected reason) ->
    check_string "reason names the token" "bad auth token" reason
  | Ok _ -> Alcotest.fail "tokenless handshake must be rejected"
  | Error e -> Alcotest.fail (Client.connect_error_message e));
  (* Wrong token, a prefix of it, an extension of it: same rejection. *)
  List.iter
    (fun wrong ->
      match Client.connect ~auth_token:wrong handle.Daemon.address with
      | Error (Client.Rejected _) -> ()
      | Ok _ -> Alcotest.failf "token %S must be rejected" wrong
      | _ -> Alcotest.failf "token %S: expected Rejected" wrong)
    [ "hunter3"; "hunter"; "hunter22" ];
  (* Right token: handshake completes and work flows. *)
  let client = connect_exn ~auth_token:"hunter2" handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_bool "advertised window is positive" true (Client.window client > 0);
  check_string "request served" (Lazy.force reference)
    (render_reply (submit_exn client (request "auth-ok")))

let test_version_rejection () =
  with_daemon (daemon_config ()) @@ fun handle ->
  let path =
    match handle.Daemon.address with
    | Protocol.Unix_socket path -> path
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* A syntactically sound frame header claiming protocol version 999:
     the daemon must classify it at the frame layer and hang up. *)
  let header = Bytes.make 16 '\000' in
  Bytes.blit_string "TSGW" 0 header 0 4;
  Bytes.set header 6 '\003';
  Bytes.set header 7 '\231' (* 999 big-endian *);
  let _ = Unix.write fd header 0 16 in
  let buffer = Bytes.create 64 in
  check_int "server hangs up (EOF, no reply frame)" 0
    (try Unix.read fd buffer 0 64 with Unix.Unix_error _ -> 0)

let test_idle_timeout () =
  with_daemon (daemon_config ~idle_timeout_s:0.3 ()) @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let started = Unix.gettimeofday () in
  (* Block for a reply that never comes: the server must close us. *)
  (match Client.read_reply client with
  | Error Client.Connection_closed -> ()
  | Ok _ -> Alcotest.fail "no reply was due"
  | Error e -> Alcotest.fail (Client.error_message e));
  let waited = Unix.gettimeofday () -. started in
  check_bool "closed after the idle deadline, not before" true (waited >= 0.29);
  check_bool "closed promptly (server not hung)" true (waited < 5.)

(* The idle clock counts inbound bytes, not whole frames: a request
   uploaded more slowly than the idle timeout, but without ever pausing
   that long, is served. *)
let test_idle_timeout_trickle () =
  with_daemon (daemon_config ~idle_timeout_s:0.3 ()) @@ fun handle ->
  let path =
    match handle.Daemon.address with
    | Protocol.Unix_socket path -> path
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  (* A write after the daemon hung up must fail this test, not kill it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let conn = GConn.create fd in
  let rec next () =
    match GConn.read_step conn with
    | { GConn.frames = payload :: _; _ } -> (
      match Protocol.decode_payload payload with
      | Ok message -> message
      | Error why -> Alcotest.fail why)
    | { GConn.closed = Some reason; _ } ->
      Alcotest.fail (GConn.close_reason_message reason)
    | _ -> next ()
  in
  let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  write (Protocol.encode (Protocol.Hello { client = "trickle"; token = None }));
  (match next () with
  | Protocol.Welcome _ -> ()
  | _ -> Alcotest.fail "expected Welcome");
  let frame =
    Protocol.encode (Protocol.Submit { seq = 0; request = request "trickle" })
  in
  (* 8 pieces 0.1 s apart: 0.7 s for the frame, no gap near 0.3 s. *)
  let pieces = 8 and len = String.length frame in
  for i = 0 to pieces - 1 do
    if i > 0 then Unix.sleepf 0.1;
    let off = i * len / pieces in
    write (String.sub frame off (((i + 1) * len / pieces) - off))
  done;
  match next () with
  | Protocol.Reply { seq = 0; reply } ->
    check_string "trickled request served" (Lazy.force reference)
      (render_reply reply)
  | _ -> Alcotest.fail "expected the Reply to seq 0"

(* ------------------------ ordering and limits ----------------------- *)

let test_pipelined_inorder_under_skew () =
  (* A slow head and a fast tail: at procs=2 the two site labels below
     have different home workers. The workers sleep inside every
     request they have not served yet, and the gateway master answers
     an input it has already seen from its memo, so after a warm-up the
     fast requests never reach a worker while the head, an input no
     earlier request carried, sleeps in its own. Every fast reply
     resolves while the head still runs, and strict ordering parks
     it. *)
  with_daemon
    (daemon_config ~procs:2
       ~service:
         { Service.default_config with Service.simulated_fetch_s = 0.8 }
       ())
  @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  let observer = connect_exn ~client:"observer" handle.Daemon.address in
  Fun.protect ~finally:(fun () ->
      Client.close client;
      Client.close observer)
  @@ fun () ->
  ignore (submit_exn client (request ~site:"skew-fast-site" "warm-up"));
  let head_input = vertical_pages_input 1 in
  let head_reference = render (segment head_input) in
  let requests =
    { (request ~site:"skew-slow-site" "skew-0") with
      Service.input = head_input
    }
    :: List.init 5 (fun i ->
           request ~site:"skew-fast-site" (Printf.sprintf "skew-%d" (i + 1)))
  in
  List.iter
    (fun r ->
      match Client.send_submit client r with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Client.error_message e))
    requests;
  (* The observer's Stats, while the head runs: the fast requests have
     resolved at the gateway, none of their replies has been written,
     and the head holds its worker while the other worker is idle. *)
  let stat stats name = int_of_float (List.assoc name stats) in
  let rec while_head_runs tries =
    let stats =
      match Client.stats observer with
      | Ok stats -> stats
      | Error e -> Alcotest.fail (Client.error_message e)
    in
    if stat stats "gateway.requests_ok" >= 6 then stats
    else if tries = 0 then Alcotest.fail "the fast requests never resolved"
    else begin
      GWire.sleep_s 0.005;
      while_head_runs (tries - 1)
    end
  in
  let stats = while_head_runs 2000 in
  check_int "warm-up and fast requests resolved, the head not" 6
    (stat stats "gateway.requests_ok");
  check_int "only the warm-up's reply has been written" 1
    (stat stats "daemon.replies");
  check_bool "the head holds one worker, the fast requests left the other"
    true
    (List.sort compare
       [ stat stats "gateway.worker0.inflight";
         stat stats "gateway.worker1.inflight" ]
    = [ 0; 1 ]);
  let replies =
    List.map
      (fun _ ->
        match Client.read_reply client with
        | Ok (_, reply) -> reply
        | Error e -> Alcotest.fail (Client.error_message e))
      requests
  in
  check_int "one reply per request" (List.length requests)
    (List.length replies);
  List.iteri
    (fun i reply ->
      check_string
        (Printf.sprintf "reply %d is in submission order" i)
        (Printf.sprintf "skew-%d" i)
        reply.Protocol.id;
      check_string
        (Printf.sprintf "reply %d byte-identical to the reference" i)
        (if i = 0 then head_reference else Lazy.force reference)
        (render_reply reply))
    replies

let test_conn_inflight_limit () =
  with_daemon
    (daemon_config ~procs:2 ~inflight:2 ~service:(slow_service 0.3) ())
  @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_int "server advertises its window" 2 (Client.window client);
  let requests = List.init 5 (fun i -> request (Printf.sprintf "win-%d" i)) in
  (* Push past the advertised window on purpose: the excess must come
     back as typed, in-order refusals carrying the window size. *)
  let replies =
    match Client.submit_all client ~window:5 requests with
    | Ok replies -> replies
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  let outcomes =
    List.map
      (fun (reply : Protocol.reply) ->
        match reply.Protocol.outcome with
        | Ok _ -> "ok"
        | Error (Gw.Gateway_overloaded { capacity; _ }) ->
          check_int "refusal carries the per-connection window" 2 capacity;
          "refused"
        | Error e -> "ERROR: " ^ Gw.error_message e)
      replies
  in
  check_bool
    (Printf.sprintf "first two admitted, rest refused (got %s)"
       (String.concat "," outcomes))
    true
    (outcomes = [ "ok"; "ok"; "refused"; "refused"; "refused" ])

let test_quota_retry_after_crosses_the_wire () =
  with_daemon (daemon_config ~site_quota:1.0 ()) @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* Burst is one second of quota = exactly one token: the first
     request is admitted, the second must bounce with a usable hint. *)
  check_string "first request admitted" (Lazy.force reference)
    (render_reply (submit_exn client (request "quota-0")));
  match (submit_exn client (request "quota-1")).Protocol.outcome with
  | Error (Gw.Quota_exceeded { site; retry_after_s }) ->
    check_string "rejection names the site" "daemon-test" site;
    check_bool "retry-after hint is positive" true (retry_after_s > 0.);
    check_bool "retry-after hint is sane" true (retry_after_s <= 1.)
  | Ok _ -> Alcotest.fail "second request should exceed the quota"
  | Error e -> Alcotest.fail ("wrong error: " ^ Gw.error_message e)

(* What a client decodes equals (=) the in-process result: a miss and a
   memo hit from a two-worker fleet; from a one-worker ([procs = 1])
   daemon over a store, a miss and a hit, and after a restart on the
   same store directory, a hit promoted from it. *)
let check_served label ~cache_hit (reply : Protocol.reply) =
  check_bool (label ^ ": cache hit") cache_hit reply.Protocol.cache_hit;
  match reply.Protocol.outcome with
  | Ok result ->
    check_bool (label ^ ": equals the in-process result") true
      (result = Lazy.force reference_result)
  | Error error -> Alcotest.fail (label ^ ": " ^ Gw.error_message error)

let test_replies_equal_in_process () =
  (with_daemon (daemon_config ~procs:2 ()) @@ fun handle ->
   let client = connect_exn handle.Daemon.address in
   Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
   check_served "forked miss" ~cache_hit:false
     (submit_exn client (request "miss"));
   check_served "forked hit" ~cache_hit:true (submit_exn client (request "hit")));
  let store_dir = temp_sock () ^ ".tabstore" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists store_dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat store_dir name))
          (Sys.readdir store_dir);
        Unix.rmdir store_dir
      end)
  @@ fun () ->
  let serve_stored f =
    with_daemon
      (daemon_config ~procs:1
         ~service:
           { Service.default_config with Service.store_dir = Some store_dir }
         ())
    @@ fun handle ->
    let client = connect_exn handle.Daemon.address in
    Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)
  in
  serve_stored (fun client ->
      check_served "stored miss" ~cache_hit:false
        (submit_exn client (request "stored-miss"));
      check_served "stored hit" ~cache_hit:true
        (submit_exn client (request "stored-hit")));
  serve_stored (fun client ->
      check_served "hit promoted from the store after a restart"
        ~cache_hit:true
        (submit_exn client (request "promoted")))

(* A [procs = 1] daemon segments on its one worker, never on its select
   loop: while client A's cold request sleeps on the worker, client B
   connects and gets [Stats] at once, and A's reply still equals the
   in-process result. *)
let test_loop_answers_while_worker_busy () =
  with_daemon (daemon_config ~procs:1 ~service:(slow_service 1.0) ())
  @@ fun handle ->
  let a = connect_exn ~client:"cold" handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close a) @@ fun () ->
  (match Client.send_submit a (request "cold") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Client.error_message e));
  (* Let the daemon take A's request before B arrives. *)
  GWire.sleep_s 0.1;
  let asked = Unix.gettimeofday () in
  let b = connect_exn ~client:"observer" handle.Daemon.address in
  let stats =
    Fun.protect ~finally:(fun () -> Client.close b) @@ fun () ->
    match Client.stats b with
    | Ok stats -> stats
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  check_bool "B connected and got Stats in under 0.5 s" true
    (Unix.gettimeofday () -. asked < 0.5);
  check_int "A's request was still on the worker" 1
    (int_of_float (List.assoc "gateway.worker0.inflight" stats));
  match Client.read_reply a with
  | Ok (_, reply) -> check_served "A's reply" ~cache_hit:false reply
  | Error e -> Alcotest.fail (Client.error_message e)

(* ------------------------- failure modes ---------------------------- *)

let test_disconnect_mid_request () =
  with_daemon (daemon_config ~procs:2 ~service:(slow_service 0.4) ())
  @@ fun handle ->
  (* Client A walks away from an in-flight request... *)
  let a = connect_exn ~client:"deserter" handle.Daemon.address in
  (match Client.send_submit a (request "orphan") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Client.error_message e));
  Client.close a;
  (* ...and the daemon keeps serving everyone else meanwhile. *)
  let b = connect_exn ~client:"survivor" handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close b) @@ fun () ->
  check_string "other connections are unaffected" (Lazy.force reference)
    (render_reply (submit_exn b (request "alive")));
  (* Once the orphaned request completes, its reply is counted, not
     delivered, and the daemon is still healthy. *)
  GWire.sleep_s 0.6;
  let stats =
    match Client.stats b with
    | Ok stats -> stats
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  check_bool "orphaned reply was counted" true
    (List.assoc "daemon.orphaned_replies" stats >= 1.);
  check_int "no worker was lost to the disconnect" 0
    (int_of_float (List.assoc "gateway.worker_restarts" stats));
  check_string "daemon still serves after the orphan resolved"
    (Lazy.force reference)
    (render_reply (submit_exn b (request "still-alive")))

(* A forged header claiming a ~2 GB payload: the daemon must classify
   it at the frame layer (typed Frame_too_large inside Conn's close
   reason), hang up without allocating, and keep serving everyone
   else. *)
let test_oversize_frame_refused () =
  with_daemon (daemon_config ()) @@ fun handle ->
  let path =
    match handle.Daemon.address with
    | Protocol.Unix_socket path -> path
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let u32_be v =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (v land 0xff));
    Bytes.to_string b
  in
  let header =
    "TSGW" ^ u32_be GWire.protocol_version ^ u32_be 0 ^ u32_be 2_000_000_000
  in
  let _ = Unix.write_substring fd header 0 (String.length header) in
  let buffer = Bytes.create 64 in
  check_int "server hangs up (EOF, no reply frame)" 0
    (try Unix.read fd buffer 0 64 with Unix.Unix_error _ -> 0);
  (* The fleet is untouched: a well-behaved client still gets served. *)
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_string "daemon still serves after the forged frame"
    (Lazy.force reference)
    (render_reply (submit_exn client (request "post-forgery")));
  let stats =
    match Client.stats client with
    | Ok stats -> stats
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  check_int "no worker was lost to the forged frame" 0
    (int_of_float (List.assoc "gateway.worker_restarts" stats))

(* An oversized Hello (client name or token) is refused before the auth
   check and counted in daemon.hello_oversized. *)
let test_oversized_hello_rejected () =
  with_daemon (daemon_config ()) @@ fun handle ->
  (match
     Client.connect ~client:(String.make 300 'x') handle.Daemon.address
   with
  | Error (Client.Rejected reason) ->
    check_string "reason names the limit" "hello client/token too long" reason
  | Ok _ -> Alcotest.fail "oversized client name must be rejected"
  | Error e -> Alcotest.fail (Client.connect_error_message e));
  (match
     Client.connect
       ~auth_token:(String.make 2_000 't')
       handle.Daemon.address
   with
  | Error (Client.Rejected _) -> ()
  | Ok _ -> Alcotest.fail "oversized token must be rejected"
  | _ -> Alcotest.fail "oversized token: expected Rejected");
  (* A name at exactly the cap is legal, and the rejections above were
     counted. *)
  let client =
    connect_exn
      ~client:(String.make Protocol.max_hello_client_len 'y')
      handle.Daemon.address
  in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_string "cap-length client name is served" (Lazy.force reference)
    (render_reply (submit_exn client (request "cap-name")));
  let stats =
    match Client.stats client with
    | Ok stats -> stats
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  check_int "both oversized hellos were counted" 2
    (int_of_float (List.assoc "daemon.hello_oversized" stats))

let test_sigterm_drain () =
  let config = daemon_config ~procs:2 ~service:(slow_service 0.4) () in
  let handle = Daemon.spawn ~config () in
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* In-flight work before the signal... *)
  (match Client.send_submit client (request "inflight") with
  | Ok seq -> check_int "first submit has seq 0" 0 seq
  | Error e -> Alcotest.fail (Client.error_message e));
  (* Writing the frame is not the same as the daemon having read it: if
     SIGTERM wins that race the submit is (correctly) a late frame and
     gets refused as Draining instead of running. Stats are answered
     out-of-band, so poll them until the request is counted — only then
     is it genuinely in flight. *)
  let rec await_admission tries =
    let seen =
      match Client.stats client with
      | Ok stats -> List.assoc "daemon.requests" stats >= 1.
      | Error e -> Alcotest.fail (Client.error_message e)
    in
    if not seen then
      if tries <= 0 then Alcotest.fail "daemon never admitted the submit"
      else begin
        GWire.sleep_s 0.01;
        await_admission (tries - 1)
      end
  in
  await_admission 200;
  Unix.kill handle.Daemon.pid Sys.sigterm;
  GWire.sleep_s 0.15;
  (* ...then a late frame into the draining server. *)
  (match Client.send_submit client (request "late") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Client.error_message e));
  (* The in-flight request still completes, in order... *)
  (match Client.read_reply client with
  | Ok (0, reply) ->
    check_string "in-flight work finished during the drain"
      (Lazy.force reference) (render_reply reply)
  | Ok (seq, _) -> Alcotest.fail (Printf.sprintf "unexpected seq %d" seq)
  | Error e -> Alcotest.fail (Client.error_message e));
  (* ...the late one is refused with the typed drain error... *)
  (match Client.read_reply client with
  | Ok (_, { Protocol.outcome = Error Gw.Draining; _ }) -> ()
  | Ok (_, reply) ->
    Alcotest.fail ("late submit not refused as Draining: " ^ render_reply reply)
  | Error e -> Alcotest.fail (Client.error_message e));
  (* ...and then the server closes us and exits cleanly. *)
  (match Client.read_reply client with
  | Error Client.Connection_closed -> ()
  | Ok _ -> Alcotest.fail "no further reply was due"
  | Error e -> Alcotest.fail (Client.error_message e));
  check_int "daemon exited 0 after the drain" 0 (Daemon.stop handle)

(* ----------------------------- transports --------------------------- *)

let test_tcp_listener () =
  let config =
    {
      (daemon_config ()) with
      Daemon.listen = Protocol.Tcp ("127.0.0.1", 0);
    }
  in
  with_daemon config @@ fun handle ->
  (match handle.Daemon.address with
  | Protocol.Tcp ("127.0.0.1", port) ->
    check_bool "kernel-assigned port is real" true (port > 0)
  | other ->
    Alcotest.fail
      ("expected a tcp address, got " ^ Protocol.address_to_string other));
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_string "request served over tcp" (Lazy.force reference)
    (render_reply (submit_exn client (request "tcp")))

(* A Unix listener takes over its path only from a stale socket. *)
let expect_bind_error name errno f =
  match f () with
  | (_ : Daemon.t) -> Alcotest.failf "%s: Daemon.create bound" name
  | exception Unix.Unix_error (e, "bind", _) when e = errno -> ()

let test_unix_path_regular_file () =
  let path = temp_sock () in
  Out_channel.with_open_bin path (fun oc -> output_string oc "not a socket");
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let config = { (daemon_config ()) with Daemon.listen = Protocol.Unix_socket path } in
  expect_bind_error "a regular file" Unix.EEXIST (fun () -> Daemon.create ~config ());
  check_string "the file is untouched" "not a socket"
    (In_channel.with_open_bin path In_channel.input_all)

let test_unix_path_live_daemon () =
  let config = daemon_config () in
  with_daemon config @@ fun handle ->
  expect_bind_error "a live daemon's path" Unix.EADDRINUSE (fun () ->
      Daemon.create ~config ());
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_string "the first daemon still answers" (Lazy.force reference)
    (render_reply (submit_exn client (request "after-collision")))

let test_unix_path_stale_socket () =
  let config = daemon_config () in
  (match config.Daemon.listen with
  | Protocol.Unix_socket path ->
    (* A socket bound and closed without an unlink, as a killed daemon
       leaves it. *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.bind fd (Unix.ADDR_UNIX path))
  | Protocol.Tcp _ -> Alcotest.fail "expected a unix address");
  with_daemon config @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  check_string "served over the replaced path" (Lazy.force reference)
    (render_reply (submit_exn client (request "stale")))

(* Other hosts can reach 0.0.0.0: without a token it is refused before
   anything is forked, with one it binds. *)
let test_tcp_off_loopback_needs_token () =
  let config =
    { (daemon_config ()) with Daemon.listen = Protocol.Tcp ("0.0.0.0", 0) }
  in
  (match Daemon.create ~config () with
  | (_ : Daemon.t) -> Alcotest.fail "0.0.0.0 without a token was bound"
  | exception Invalid_argument message ->
    check_bool "the error names --auth-token" true
      (let flag = "--auth-token" in
       let rec from i =
         i + String.length flag <= String.length message
         && (String.sub message i (String.length flag) = flag || from (i + 1))
       in
       from 0));
  let daemon =
    Daemon.create ~config:{ config with Daemon.auth_token = Some "s3cret" } ()
  in
  (match Daemon.bound_address daemon with
  | Protocol.Tcp (_, port) -> check_bool "bound with a token" true (port > 0)
  | Protocol.Unix_socket _ -> Alcotest.fail "expected a tcp address");
  Daemon.request_drain daemon;
  Daemon.serve daemon

(* ------------------------------ loadgen ----------------------------- *)

let test_loadgen_closed_loop () =
  with_daemon (daemon_config ~procs:2 ()) @@ fun handle ->
  let config =
    {
      Loadgen.default_config with
      Loadgen.address = handle.Daemon.address;
      connections = 2;
      mode = Loadgen.Closed_loop { pipeline = 2 };
      duration_s = 0.4;
      sites = [| ("daemon-test", Lazy.force small_input) |];
      expected = [ ("daemon-test", Lazy.force reference) ];
    }
  in
  match Loadgen.run config with
  | Error why -> Alcotest.fail why
  | Ok stats ->
    check_bool "offered some load" true (stats.Loadgen.offered > 0);
    check_int "everything offered completed" stats.Loadgen.offered
      stats.Loadgen.completed;
    check_int "nothing failed" 0 stats.Loadgen.failed;
    check_int "replies byte-identical under load" 0 stats.Loadgen.mismatches;
    check_bool "latency percentiles are ordered" true
      (stats.Loadgen.p50_ms <= stats.Loadgen.p95_ms
      && stats.Loadgen.p95_ms <= stats.Loadgen.p99_ms)

let test_loadgen_quota_retry_recovers () =
  with_daemon (daemon_config ~site_quota:20.0 ()) @@ fun handle ->
  let run retry =
    let config =
      {
        Loadgen.default_config with
        Loadgen.address = handle.Daemon.address;
        connections = 2;
        mode = Loadgen.Open_loop { rate = 150. };
        duration_s = 0.4;
        drain_timeout_s = 3.0;
        sites = [| ("daemon-test", Lazy.force small_input) |];
        retry_quota = retry;
        max_retries = 5;
      }
    in
    match Loadgen.run config with
    | Error why -> Alcotest.fail why
    | Ok stats -> stats
  in
  let naive = run false in
  check_bool "naive client was quota-limited" true (naive.Loadgen.abandoned > 0);
  check_int "naive client never retries" 0 naive.Loadgen.retried;
  let retry = run true in
  check_bool "retrying client retried" true (retry.Loadgen.retried > 0);
  check_bool "retrying client recovered rejected work" true
    (retry.Loadgen.recovered > 0);
  check_bool "retrying beats naive on completed work" true
    (retry.Loadgen.ok > naive.Loadgen.ok)

(* [serve] sets SIGTERM to its drain and SIGPIPE to ignore while it
   runs, and gives both back when it returns: a process that embeds a
   daemon keeps its own handlers after the daemon is gone. *)
let test_serve_restores_signals () =
  (* [create] forks the gateway's worker, and the gateway ignores
     SIGPIPE from then on: the handlers serve must give back are the
     ones in place when it starts. *)
  let daemon = Daemon.create ~config:(daemon_config ()) () in
  let on_term _ = () and on_pipe _ = () in
  let term_before = Sys.signal Sys.sigterm (Sys.Signal_handle on_term) in
  let pipe_before = Sys.signal Sys.sigpipe (Sys.Signal_handle on_pipe) in
  let is handler = function
    | Sys.Signal_handle f -> f == handler
    | Sys.Signal_default | Sys.Signal_ignore -> false
  in
  let term_after, pipe_after =
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigterm term_before;
        Sys.set_signal Sys.sigpipe pipe_before)
      (fun () ->
        Daemon.request_drain daemon;
        Daemon.serve daemon;
        ( Sys.signal Sys.sigterm Sys.Signal_default,
          Sys.signal Sys.sigpipe Sys.Signal_default ))
  in
  check_bool "SIGTERM is the handler it was before serve" true
    (is on_term term_after);
  check_bool "SIGPIPE is the handler it was before serve" true
    (is on_pipe pipe_after)

(* ------------------------------- stats ------------------------------ *)

(* The Stats reply is read off the registry: every daemon.* and gateway.*
   counter and gauge the daemon and its gateway register, the overload
   ladder's counters and each slot's gauges included. *)
let test_stats_names_every_metric () =
  let reported_by_registry (name, _) =
    String.starts_with ~prefix:"daemon." name
    || String.starts_with ~prefix:"gateway." name
  in
  (* In process: the snapshot against the registry it is read from. *)
  let registered =
    let daemon = Daemon.create ~config:(daemon_config ()) () in
    let registered =
      List.map fst
        (List.filter reported_by_registry
           (Metrics.values (Daemon.metrics daemon)))
    in
    Alcotest.(check (list string))
      "the snapshot names every daemon.* and gateway.* counter and gauge"
      registered
      (List.map fst (Daemon.stats daemon));
    Daemon.request_drain daemon;
    Daemon.serve daemon;
    registered
  in
  List.iter
    (fun name ->
      check_bool (name ^ " is registered") true (List.mem name registered))
    [ "gateway.spilled"; "gateway.deadline_exceeded"; "gateway.ping_timeouts";
      "gateway.redispatches"; "gateway.late_responses"; "gateway.memo_hits";
      "gateway.memo_bytes"; "daemon.requests" ];
  (* Over the wire, from a forked fleet: the same names, and each slot's
     gauges. *)
  with_daemon (daemon_config ~procs:2 ()) @@ fun handle ->
  let client = connect_exn handle.Daemon.address in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  ignore (submit_exn client (request "stats"));
  match Client.stats client with
  | Error e -> Alcotest.fail (Client.error_message e)
  | Ok stats ->
    List.iter
      (fun name ->
        check_bool (name ^ " is in the reply") true (List.mem_assoc name stats))
      (registered @ [ "gateway.worker0.inflight"; "gateway.worker1.inflight" ]);
    check_bool "nothing but daemon.* and gateway.*" true
      (List.for_all reported_by_registry stats)

let () =
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          Alcotest.test_case "address parsing" `Quick test_address_parsing;
          Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "auth token gates admission" `Slow
            test_auth_token;
          Alcotest.test_case "wrong frame version hangs up" `Slow
            test_version_rejection;
          Alcotest.test_case "idle connections are closed" `Slow
            test_idle_timeout;
          Alcotest.test_case "forged 2 GB frame is refused, fleet healthy"
            `Slow test_oversize_frame_refused;
          Alcotest.test_case "oversized Hello is rejected and counted" `Slow
            test_oversized_hello_rejected;
          Alcotest.test_case "a slow upload is not idle" `Slow
            test_idle_timeout_trickle;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "pipelined in-order under latency skew" `Slow
            test_pipelined_inorder_under_skew;
          Alcotest.test_case "inflight window refuses in-order" `Slow
            test_conn_inflight_limit;
          Alcotest.test_case "quota retry-after crosses the wire" `Slow
            test_quota_retry_after_crosses_the_wire;
          Alcotest.test_case "served results equal the in-process result"
            `Slow test_replies_equal_in_process;
          Alcotest.test_case "procs 1: Stats answered while a request runs"
            `Slow test_loop_answers_while_worker_busy;
        ] );
      ( "failure",
        [
          Alcotest.test_case "client disconnect mid-request" `Slow
            test_disconnect_mid_request;
          Alcotest.test_case "SIGTERM drains and exits 0" `Slow
            test_sigterm_drain;
          Alcotest.test_case "serve gives back SIGTERM and SIGPIPE" `Slow
            test_serve_restores_signals;
        ] );
      ( "transport",
        [
          Alcotest.test_case "tcp listener" `Slow test_tcp_listener;
          Alcotest.test_case "a regular file at the unix path survives"
            `Quick test_unix_path_regular_file;
          Alcotest.test_case "a live daemon's unix path is not taken over"
            `Slow test_unix_path_live_daemon;
          Alcotest.test_case "a stale socket file is replaced" `Slow
            test_unix_path_stale_socket;
          Alcotest.test_case "tcp off loopback needs an auth token" `Slow
            test_tcp_off_loopback_needs_token;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "closed loop, byte-identical" `Slow
            test_loadgen_closed_loop;
          Alcotest.test_case "quota retry recovers goodput" `Slow
            test_loadgen_quota_retry_recovers;
        ] );
      ( "stats",
        [
          Alcotest.test_case "Stats names every daemon and gateway metric"
            `Slow test_stats_names_every_metric;
        ] );
    ]
