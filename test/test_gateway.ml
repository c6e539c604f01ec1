(* The multi-process gateway: wire-frame integrity (roundtrip, CRC
   damage, version skew as typed decode errors, pinned frame bytes),
   the connection reader (frames cut anywhere, linear-time buffering of
   a large frame, no allocation on a header's claim), byte-identity of the
   procs=2 merge against the sequential reference, in-order merge under
   adversarial per-worker latency skew, worker-crash recovery via a
   single re-dispatch, permanent worker loss as a typed error, deadline
   expiry at the master, the master's memo (repeats answered inside
   [submit], copies joined to a frame in flight, late answers kept),
   and SIGTERM drain semantics. *)

open Tabseg_serve
open Tabseg_gateway
open Tabseg_sitegen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let render segmentation =
  Format.asprintf "%a" Tabseg.Segmentation.pp segmentation

let render_response response =
  match Gateway.result response with
  | Ok result -> render result.Tabseg.Api.segmentation
  | Error error -> "ERROR: " ^ Gateway.error_message error

let requests_of site_names =
  List.concat_map
    (fun name ->
      let site = Sites.find name in
      let generated = Sites.generate site in
      List.mapi
        (fun page_index _ ->
          let list_pages, detail_pages =
            Sites.segmentation_input generated ~page_index
          in
          {
            Service.id = Printf.sprintf "%s#%d" name page_index;
            site = name;
            input = { Tabseg.Pipeline.list_pages; detail_pages };
          })
        generated.Sites.pages)
    site_names

let sequential_reference requests =
  List.map
    (fun (request : Service.request) ->
      match
        Tabseg.Api.segment_result ~method_:Tabseg.Api.Probabilistic
          request.Service.input
      with
      | Ok result -> render result.Tabseg.Api.segmentation
      | Error error -> "ERROR: " ^ Tabseg.Api.input_error_message error)
    requests

let with_gateway config f =
  let gateway = Gateway.create ~config () in
  Fun.protect ~finally:(fun () -> Gateway.shutdown gateway) (fun () ->
      f gateway)

let temp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tabseg_gw_%d_%d" (Unix.getpid ()) !counter)

let counter_value gateway name =
  Metrics.counter_value (Metrics.counter (Gateway.metrics gateway) name)

(* Workers that sleep [fetch_s] inside every request: with no cache, no
   memo hit skips the sleep. This is how the tests below model service
   time and stalls; nothing a request carries can. *)
let slow_service fetch_s =
  {
    Service.default_config with
    Service.cache = None;
    simulated_fetch_s = fetch_s;
  }

(* Pump until [ready ()] holds; a wait past [timeout] fails the test
   instead of hanging it. *)
let pump_until ?(timeout = 30.) gateway ready =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (ready ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "the gateway never reached the awaited state";
    Gateway.pump ~max_wait_s:0.01 gateway
  done

(* [submit] every request; the array fills as they resolve. *)
let submit_all gateway requests =
  let responses = Array.make (List.length requests) None in
  List.iteri
    (fun i request ->
      Gateway.submit gateway
        ~on_complete:(fun response -> responses.(i) <- Some response)
        request)
    requests;
  responses

let resolved responses () = Array.for_all Option.is_some responses

(* Crash a worker from outside, as a real crash happens: wait until the
   master counts a backlog on a live worker, give the frames time to
   reach it — the workers sleep inside each request — then SIGKILL it and
   pump until supervision has noticed. Driven by submit + pump on the
   test's own thread: no Domain may exist while the gateway still
   forks. *)
let kill_busy_worker gateway =
  let busy () =
    List.filter_map
      (fun (slot, pid) ->
        if
          Metrics.gauge_value
            (Metrics.gauge (Gateway.metrics gateway)
               (Printf.sprintf "gateway.worker%d.inflight" slot))
          > 0.
        then Some pid
        else None)
      (Gateway.worker_pids gateway)
  in
  pump_until gateway (fun () -> busy () <> []);
  let settled = Unix.gettimeofday () +. 0.1 in
  pump_until gateway (fun () -> Unix.gettimeofday () >= settled);
  let victims = busy () in
  List.iter (fun pid -> Unix.kill pid Sys.sigkill) victims;
  pump_until gateway (fun () ->
      not
        (List.exists
           (fun (_, pid) -> List.mem pid victims)
           (Gateway.worker_pids gateway)))

(* ------------------------------ wire -------------------------------- *)

let roundtrip message = Wire.decode (Wire.encode message)

let test_wire_roundtrip () =
  let messages =
    [
      Wire.Hello { pid = 4242; role = "writer" };
      Wire.Ping 7;
      Wire.Pong 7;
      Wire.Shutdown;
      Wire.Request
        {
          seq = 12;
          request =
            {
              Service.id = "r12";
              site = "example";
              input =
                {
                  Tabseg.Pipeline.list_pages = [ "<html>x</html>" ];
                  detail_pages = [ "<html>y</html>" ];
                };
            };
        };
    ]
  in
  List.iter
    (fun message ->
      match roundtrip message with
      | `Msg (decoded, consumed) ->
        check_bool "roundtrip preserves the message" true (decoded = message);
        check_int "whole frame consumed" (String.length (Wire.encode message))
          consumed
      | `Need_more | `Error _ -> Alcotest.fail "roundtrip failed to decode")
    messages;
  (* Two frames back to back parse in order from the running offset. *)
  let stream = Wire.encode (Wire.Ping 1) ^ Wire.encode (Wire.Ping 2) in
  (match Wire.decode stream with
  | `Msg (Wire.Ping 1, next) -> (
    match Wire.decode ~off:next stream with
    | `Msg (Wire.Ping 2, final) ->
      check_int "stream fully consumed" (String.length stream) final
    | _ -> Alcotest.fail "second frame lost")
  | _ -> Alcotest.fail "first frame lost");
  (* A frame prefix is Need_more at every cut point, never an error. *)
  let frame = Wire.encode Wire.Shutdown in
  for cut = 0 to String.length frame - 1 do
    match Wire.decode (String.sub frame 0 cut) with
    | `Need_more -> ()
    | `Msg _ | `Error _ ->
      Alcotest.fail (Printf.sprintf "truncation at %d misparsed" cut)
  done

let test_wire_damage_typed () =
  let frame =
    Wire.encode
      (Wire.Hello { pid = 1; role = "reader" })
  in
  let flip frame pos =
    let bytes = Bytes.of_string frame in
    Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x40));
    Bytes.to_string bytes
  in
  (* A flipped payload byte fails the CRC. *)
  (match Wire.decode (flip frame (String.length frame - 1)) with
  | `Error Wire.Bad_crc -> ()
  | _ -> Alcotest.fail "payload damage must be Bad_crc");
  (* A flipped magic byte is Bad_magic. *)
  (match Wire.decode (flip frame 0) with
  | `Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "magic damage must be Bad_magic");
  (* A version bump is typed with the claimed version. *)
  (match Wire.decode (flip frame 7) with
  | `Error (Wire.Bad_version v) ->
    check_bool "claimed version reported" true (v <> Wire.protocol_version)
  | _ -> Alcotest.fail "version skew must be Bad_version");
  (* Damage in the length field cannot make the decoder allocate wild:
     it reports an error or wants more bytes, it never throws. *)
  match Wire.decode (flip frame 13) with
  | `Error _ | `Need_more -> ()
  | `Msg _ -> Alcotest.fail "length damage decoded as a message"

(* A forged header claiming a ~2 GB payload must come back as the typed
   Frame_too_large error on both decode paths — incremental
   [decode_frame] and blocking [read_message] — before any payload
   allocation happens. *)
let forged_header claimed =
  let u32_be v =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (v land 0xff));
    Bytes.to_string b
  in
  "TSGW" ^ u32_be Wire.protocol_version ^ u32_be 0 ^ u32_be claimed

let test_wire_forged_length () =
  let claimed = 2_000_000_000 in
  (* Incremental decoder: typed error carrying the claimed length. *)
  (match Wire.decode_frame (forged_header claimed) with
  | `Error (Wire.Frame_too_large len) ->
    check_int "claimed length reported" claimed len
  | `Error _ -> Alcotest.fail "wrong error for a forged length"
  | `Need_more -> Alcotest.fail "forged length must not ask for 2 GB more"
  | `Frame _ -> Alcotest.fail "forged length decoded as a frame");
  (* One past the cap refuses; the cap itself is still just Need_more. *)
  (match Wire.decode_frame (forged_header (Wire.max_payload + 1)) with
  | `Error (Wire.Frame_too_large _) -> ()
  | _ -> Alcotest.fail "max_payload + 1 must refuse");
  (match Wire.decode_frame (forged_header Wire.max_payload) with
  | `Need_more -> ()
  | _ -> Alcotest.fail "a frame at exactly max_payload is legal");
  (* Blocking reader: same typed error, again before allocating. *)
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let header = forged_header claimed in
      let n = Unix.write_substring w header 0 (String.length header) in
      check_int "header fully written" (String.length header) n;
      match Wire.read_message r with
      | Error (`Decode (Wire.Frame_too_large len)) ->
        check_int "claimed length reported" claimed len
      | Ok _ -> Alcotest.fail "forged length read as a message"
      | Error _ -> Alcotest.fail "wrong error for a forged length")

(* One frame's bytes, pinned: the header layout and the checksum are
   what peers running an older build check. *)
let test_wire_frame_bytes () =
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  let frame = Wire.frame_payload "123456789" in
  check_int "header + payload" 25 (String.length frame);
  check_string "header: magic, version 8, CRC-32, length"
    "5453475700000008cbf4392600000009" (hex (String.sub frame 0 16));
  check_string "payload follows" "123456789" (String.sub frame 16 9)

(* ------------------------- connection reader ------------------------ *)

let with_socketpair f =
  let w, r = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close w with Unix.Unix_error _ -> ());
      try Unix.close r with Unix.Unix_error _ -> ())
    (fun () -> f w r)

(* Write [stream] in pieces of [piece ()] bytes (at most 64 KB, so the
   socket never fills), reading through one nonblocking [Conn] after
   each piece until the socket is empty. Returns the payloads read. *)
let pump ~piece stream =
  with_socketpair @@ fun w r ->
  Unix.set_nonblock r;
  let conn = Conn.create r in
  let got = ref [] in
  let rec drain () =
    let { Conn.frames; bytes_read; closed } = Conn.read_step conn in
    got := List.rev_append frames !got;
    (match closed with
    | Some reason -> Alcotest.fail (Conn.close_reason_message reason)
    | None -> ());
    if bytes_read > 0 then drain ()
  in
  let len = String.length stream in
  let rec go off =
    if off < len then begin
      let n = min (min (piece ()) 65536) (len - off) in
      let written = Unix.write_substring w stream off n in
      drain ();
      go (off + written)
    end
  in
  go 0;
  List.rev !got

(* Frames from empty to several times the read size, cut anywhere:
   every slide, growth and drop path of the buffer, and every frame
   comes out whole and in order. *)
let test_conn_frames_cut_anywhere () =
  let st = Random.State.make [| 14 |] in
  let payloads =
    List.map
      (fun size -> String.init size (fun _ -> Char.chr (Random.State.int st 256)))
      [ 0; 1; 7; 100; 9_000; 70_000; 3; 65_520; 65_536; 200_000; 12_500; 5 ]
  in
  let stream = String.concat "" (List.map Wire.frame_payload payloads) in
  List.iter
    (fun bound ->
      let got =
        pump ~piece:(fun () -> 1 + Random.State.int st bound) stream
      in
      check_int
        (Printf.sprintf "frame count, pieces up to %d bytes" bound)
        (List.length payloads) (List.length got);
      check_bool
        (Printf.sprintf "payloads intact and in order, pieces up to %d bytes"
           bound)
        true (got = payloads))
    [ 64; 4_096; 65_536 ]

(* A large frame arriving in 64 KB reads is copied O(1) times, not once
   per read: allocation stays a small multiple of the frame. *)
let test_conn_large_frame_linear () =
  let payload = String.init (4 lsl 20) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let frame = Wire.frame_payload payload in
  let before = Gc.allocated_bytes () in
  let got = pump ~piece:(fun () -> 65536) frame in
  let ratio =
    (Gc.allocated_bytes () -. before) /. float_of_int (String.length frame)
  in
  (match got with
  | [ p ] -> check_bool "payload intact" true (p = payload)
  | _ -> Alcotest.fail "expected exactly one frame");
  check_bool
    (Printf.sprintf "allocated %.1fx the frame (must be < 8x)" ratio)
    true (ratio < 8.)

(* A header is only a claim: the buffer grows with the bytes that
   arrived, not to the length a header announces. *)
let test_conn_header_claim_not_allocated () =
  let claim = forged_header Wire.max_payload ^ "ten bytes." in
  let before = Gc.allocated_bytes () in
  let got = pump ~piece:(fun () -> 65536) claim in
  check_int "no frame yet" 0 (List.length got);
  check_bool "well under the claimed 128 MiB allocated" true
    (Gc.allocated_bytes () -. before < float_of_int (1 lsl 20))

(* ------------------------ byte-identity merge ----------------------- *)

let test_procs2_matches_sequential () =
  let requests = requests_of [ "ButlerCounty"; "AlleghenyCounty" ] in
  let expected = sequential_reference requests in
  let store_dir = temp_path () ^ ".tabstore" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists store_dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat store_dir name))
          (Sys.readdir store_dir);
        Unix.rmdir store_dir
      end)
  @@ fun () ->
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      service =
        { Service.default_config with Service.store_dir = Some store_dir }
    }
  @@ fun gateway ->
  (* Cold and warm rounds must both agree byte-for-byte. *)
  List.iter
    (fun round ->
      let responses = Gateway.run_batch gateway requests in
      check_int
        (Printf.sprintf "round %d: response count" round)
        (List.length requests) (List.length responses);
      List.iteri
        (fun i (response : Gateway.response) ->
          check_string
            (Printf.sprintf "round %d request %d" round i)
            (List.nth expected i)
            (render_response response);
          check_string "order preserved"
            (List.nth requests i).Service.id response.Gateway.id)
        responses)
    [ 1; 2 ];
  (* Over one shared store, exactly one worker won the writer lock. *)
  let roles = Gateway.worker_roles gateway in
  check_int "both workers alive" 2 (List.length roles);
  check_int "exactly one writer" 1
    (List.length (List.filter (fun (_, _, role) -> role = "writer") roles));
  check_int "the other is a reader" 1
    (List.length (List.filter (fun (_, _, role) -> role = "reader") roles))

(* A response carries the body its worker encoded: decoded, it equals
   the in-process result, miss and hits alike, at procs 2 and 1. The
   second and third copies join the first one's frame at the master,
   so the two hits carry the same body. *)
let test_bodies_decode_and_are_shared () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  let expected =
    match
      Tabseg.Api.segment_result ~method_:Tabseg.Api.Probabilistic
        request.Service.input
    with
    | Ok result -> result
    | Error error -> Alcotest.fail (Tabseg.Api.input_error_message error)
  in
  let serve procs =
    with_gateway { Gateway.default_config with Gateway.procs } @@ fun gateway ->
    let responses = Gateway.run_batch gateway [ request; request; request ] in
    List.iteri
      (fun i response ->
        let label = Printf.sprintf "procs=%d reply %d" procs i in
        check_bool (label ^ ": a hit after the first") (i > 0)
          response.Gateway.cache_hit;
        match Gateway.result response with
        | Ok result ->
          check_bool (label ^ ": equals the in-process result") true
            (result = expected)
        | Error error -> Alcotest.fail (Gateway.error_message error))
      responses;
    responses
  in
  ignore (serve 2);
  match serve 1 with
  | [ _; { Gateway.outcome = Ok first; _ }; { Gateway.outcome = Ok second; _ } ]
    ->
    check_bool "two hits on one entry carry the same body" true
      (first = second)
  | _ -> Alcotest.fail "expected three Ok replies"

(* --------------------- in-order merge under skew -------------------- *)

let test_inorder_merge_under_skew () =
  let butler = requests_of [ "ButlerCounty" ] in
  let allegheny = requests_of [ "AlleghenyCounty" ] in
  let requests = butler @ allegheny in
  let expected = sequential_reference requests in
  (* Deterministic adversarial skew: at procs=2 the two sites have
     different home workers. The workers sleep inside every request
     that reaches them, and a warm-up leaves the later-submitted site
     in the master's memo, so its replies come back while the first
     site's worker still grinds: far out of submission order. *)
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      service = { Service.default_config with Service.simulated_fetch_s = 0.08 }
    }
  @@ fun gateway ->
  ignore (Gateway.run_batch gateway allegheny);
  let responses = Gateway.run_batch gateway requests in
  check_int "every request answered" (List.length requests)
    (List.length responses);
  List.iteri
    (fun i (response : Gateway.response) ->
      check_string
        (Printf.sprintf "skewed request %d still in order" i)
        (List.nth requests i).Service.id response.Gateway.id;
      check_string
        (Printf.sprintf "skewed request %d byte-identical" i)
        (List.nth expected i) (render_response response))
    responses

(* ------------------------- crash supervision ------------------------ *)

let test_worker_crash_recovery () =
  let requests = requests_of [ "ButlerCounty" ] in
  let expected = sequential_reference requests in
  (* The worker holding the site's requests is killed mid-request; the
     single re-dispatch to the restarted replacement must return the
     real result, not an error. *)
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      backoff_s = 0.01;
      service = { Service.default_config with Service.simulated_fetch_s = 0.3 }
    }
  @@ fun gateway ->
  let pending = submit_all gateway requests in
  kill_busy_worker gateway;
  pump_until gateway (resolved pending);
  let responses = Array.to_list (Array.map Option.get pending) in
  List.iteri
    (fun i (response : Gateway.response) ->
      check_string
        (Printf.sprintf "request %d correct after crash recovery" i)
        (List.nth expected i) (render_response response))
    responses;
  check_bool "the crash was supervised (restart counted)" true
    (counter_value gateway "gateway.worker_restarts" >= 1);
  check_bool "the request was re-dispatched exactly once" true
    (counter_value gateway "gateway.redispatches" >= 1);
  (* The fleet is whole again afterwards. *)
  Alcotest.(check (list int)) "both slots live" [ 0; 1 ]
    (List.map fst (Gateway.worker_pids gateway))

(* While a killed slot waits out its restart backoff, the live worker
   beside it is still listed under its own slot index, the index of its
   gateway.worker<i>.* gauges. *)
let test_restarting_slot_keeps_indices () =
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      backoff_s = 30.;
      backoff_cap_s = 30.
    }
  @@ fun gateway ->
  pump_until gateway (fun () -> List.length (Gateway.worker_pids gateway) = 2);
  let pids = Gateway.worker_pids gateway in
  Alcotest.(check (list int)) "both slots live, in order" [ 0; 1 ]
    (List.map fst pids);
  let victim = List.assoc 0 pids and neighbour = List.assoc 1 pids in
  Unix.kill victim Sys.sigkill;
  pump_until gateway (fun () ->
      not
        (List.exists
           (fun (_, pid) -> pid = victim)
           (Gateway.worker_pids gateway)));
  check_int "slot 0 is restarting" 1
    (counter_value gateway "gateway.worker_restarts");
  Alcotest.(check (list (pair int int)))
    "the neighbour keeps slot 1" [ (1, neighbour) ]
    (Gateway.worker_pids gateway);
  Alcotest.(check (list (pair int int)))
    "its role is listed under slot 1" [ (1, neighbour) ]
    (List.map
       (fun (slot, pid, _) -> (slot, pid))
       (Gateway.worker_roles gateway))

let test_worker_lost_is_typed () =
  (* Every worker that takes the request is killed while it holds it:
     after the one allowed re-dispatch the gateway must give up with a
     typed Worker_lost, never hang or crash the master. *)
  let requests = [ List.hd (requests_of [ "ButlerCounty" ]) ] in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      max_restarts = 2;
      backoff_s = 0.01;
      service = slow_service 1.0
    }
  @@ fun gateway ->
  let pending = submit_all gateway requests in
  kill_busy_worker gateway;
  (* the replacement is handed the re-dispatched request: kill it too *)
  kill_busy_worker gateway;
  pump_until gateway (resolved pending);
  match Array.to_list (Array.map Option.get pending) with
  | [ { Gateway.outcome = Error (Gateway.Worker_lost _); _ } ] -> ()
  | [ response ] ->
    Alcotest.fail
      ("expected Worker_lost, got " ^ render_response response)
  | _ -> Alcotest.fail "expected exactly one response"

let test_gateway_deadline () =
  let requests = [ List.hd (requests_of [ "ButlerCounty" ]) ] in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      deadline_s = Some 0.05;
      service = slow_service 0.5
    }
  @@ fun gateway ->
  let responses = Gateway.run_batch gateway requests in
  (match responses with
  | [ { Gateway.outcome = Error Gateway.Deadline_exceeded; _ } ] -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  check_int "deadline counted" 1
    (counter_value gateway "gateway.deadline_exceeded")

(* ------------------------ degradation ladder ------------------------ *)

(* N copies of one site's first page: the worst case for static
   affinity — every request has the same home worker. Under
   [slow_service] every copy sleeps inside its worker, so the modeled
   service time dominates and the timing assertions are stable. *)
let hot_requests ~count =
  let base = List.hd (requests_of [ "ButlerCounty" ]) in
  List.init count (fun i ->
      { base with Service.id = Printf.sprintf "hot#%d" i })

let hot_reference () =
  match
    Tabseg.Api.segment_result ~method_:Tabseg.Api.Probabilistic
      (List.hd (hot_requests ~count:1)).Service.input
  with
  | Ok result -> render result.Tabseg.Api.segmentation
  | Error error -> "ERROR: " ^ Tabseg.Api.input_error_message error

let test_spill_on_vs_off () =
  let expected = hot_reference () in
  let timed config =
    with_gateway config @@ fun gateway ->
    (* A warm-up pair first (with spill enabled it lands on both
       workers; without it both copies stay home — where the timed
       batch runs too), so no worker's first request is timed. *)
    ignore (Gateway.run_batch gateway (hot_requests ~count:2));
    let requests = hot_requests ~count:10 in
    let started = Unix.gettimeofday () in
    let responses = Gateway.run_batch gateway requests in
    let wall = Unix.gettimeofday () -. started in
    check_int "every hot request answered" (List.length requests)
      (List.length responses);
    List.iteri
      (fun i (response : Gateway.response) ->
        check_string
          (Printf.sprintf "hot request %d in submission order" i)
          (List.nth requests i).Service.id response.Gateway.id;
        check_string
          (Printf.sprintf "hot request %d byte-identical" i)
          expected (render_response response))
      responses;
    (wall, counter_value gateway "gateway.spilled")
  in
  let base =
    { Gateway.default_config with
      Gateway.procs = 2;
      service = slow_service 0.05
    }
  in
  let wall_affinity, spilled_affinity = timed base in
  let wall_spill, spilled_spill =
    timed { base with Gateway.spill_threshold = Some 0 }
  in
  check_int "strict affinity never spills" 0 spilled_affinity;
  check_bool "overloaded home worker spills" true (spilled_spill >= 4);
  (* A serial queue's wall clock is its tail latency: 10 sleeps behind
     one worker vs ~5 behind each of two leaves a wide margin. *)
  check_bool
    (Printf.sprintf "spill cuts the hot-site tail (%.3fs vs %.3fs)"
       wall_spill wall_affinity)
    true
    (wall_spill < wall_affinity *. 0.8)

let test_quota_hits_only_the_hot_site () =
  let hot = hot_requests ~count:8 in
  let cold =
    match requests_of [ "AlleghenyCounty" ] with
    | a :: b :: _ -> [ a; b ]
    | _ -> Alcotest.fail "AlleghenyCounty should have two pages"
  in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      site_quota_rps = Some 3.0
    }
  @@ fun gateway ->
  let responses = Gateway.run_batch gateway (hot @ cold) in
  let hot_responses = List.filteri (fun i _ -> i < 8) responses in
  let cold_responses = List.filteri (fun i _ -> i >= 8) responses in
  let admitted =
    List.length
      (List.filter
         (fun (r : Gateway.response) -> Result.is_ok r.Gateway.outcome)
         hot_responses)
  in
  check_int "the hot site's burst allowance is the quota" 3 admitted;
  List.iter
    (fun (response : Gateway.response) ->
      match response.Gateway.outcome with
      | Ok _ -> ()
      | Error (Gateway.Quota_exceeded { site; retry_after_s }) ->
        check_string "rejection names the hot site" "ButlerCounty" site;
        check_bool "retry hint is positive" true (retry_after_s > 0.)
      | Error other ->
        Alcotest.fail
          ("hot rejection must be Quota_exceeded, got "
          ^ Gateway.error_message other))
    hot_responses;
  List.iter
    (fun (response : Gateway.response) ->
      check_bool "cold site unaffected by the hot site's quota" true
        (Result.is_ok response.Gateway.outcome))
    cold_responses;
  check_int "quota rejections counted" 5
    (counter_value gateway "gateway.quota_rejected")

(* Same-tick rejections must not all name the same refill instant —
   otherwise every naive client sleeps the same hint and the herd
   re-arrives in lockstep for a single refilled token. Each rejection
   is promised its own refill slot, one interval (1/rate) apart. *)
let test_quota_hints_are_decorrelated () =
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 1;
      site_quota_rps = Some 3.0
    }
  @@ fun gateway ->
  let responses = Gateway.run_batch gateway (hot_requests ~count:8) in
  let hints =
    List.filter_map
      (fun (response : Gateway.response) ->
        match response.Gateway.outcome with
        | Error (Gateway.Quota_exceeded { retry_after_s; _ }) ->
          Some retry_after_s
        | Ok _ | Error _ -> None)
      responses
  in
  check_int "burst exhaustion rejects five of eight" 5 (List.length hints);
  List.iter
    (fun hint -> check_bool "every hint is positive" true (hint > 0.))
    hints;
  let rec adjacent = function
    | earlier :: (later :: _ as rest) -> (earlier, later) :: adjacent rest
    | _ -> []
  in
  (* rate 3.0: consecutive promises sit ~0.333 s apart; anything above
     0.2 proves they are distinct instants, not one shared hint *)
  List.iteri
    (fun i (earlier, later) ->
      check_bool
        (Printf.sprintf "rejection %d hinted past rejection %d (%.3f vs %.3f)"
           (i + 2) (i + 1) later earlier)
        true
        (later -. earlier > 0.2))
    (adjacent hints)

let test_shed_vs_queue_under_impossible_deadline () =
  (* Batch 1 overcommits a worker: a few requests finish in time, the
     rest expire at the master but keep the worker busy (zombie work).
     Batch 2 arrives on top of that backlog with the same deadline.
     Without shedding it queues and burns the full deadline before
     failing; with shedding the EWMA model refuses it instantly and the
     worker's queue holds only winnable work. *)
  let run ~shed =
    with_gateway
      { Gateway.default_config with
        Gateway.procs = 2;
        deadline_s = Some 0.25;
        shed;
        service = slow_service 0.12
      }
    @@ fun gateway ->
    ignore (Gateway.run_batch gateway (hot_requests ~count:6));
    let responses = Gateway.run_batch gateway (hot_requests ~count:6) in
    (responses, counter_value gateway "gateway.shed")
  in
  let queued, shed_count_off = run ~shed:false in
  check_int "shedding off never sheds" 0 shed_count_off;
  List.iter
    (fun (response : Gateway.response) ->
      check_bool "without shedding the backlogged batch burns its deadline"
        true
        (response.Gateway.outcome = Error Gateway.Deadline_exceeded))
    queued;
  let shed, shed_count_on = run ~shed:true in
  List.iter
    (fun (response : Gateway.response) ->
      match response.Gateway.outcome with
      | Error (Gateway.Shed { predicted_s; deadline_s }) ->
        check_bool "prediction exceeds the deadline" true
          (predicted_s > deadline_s)
      | _ ->
        Alcotest.fail
          ("expected a typed Shed, got " ^ render_response response))
    shed;
  check_int "every backlogged request was shed at admission" 6 shed_count_on

let test_ping_timeout_restarts_wedged_worker () =
  (* A worker stuck in a 5 s stall inside the request never closes its
     socket, so the EOF-based supervision alone would wait out the
     stall. The ping deadline must SIGKILL it, restart through the
     backoff path, and — when the replacement wedges on the
     re-dispatched request too — give up with the typed Worker_lost. *)
  let requests = hot_requests ~count:1 in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      ping_timeout_s = Some 0.15;
      max_restarts = 2;
      backoff_s = 0.01;
      service = slow_service 5.0
    }
  @@ fun gateway ->
  let responses = Gateway.run_batch gateway requests in
  (match responses with
  | [ { Gateway.outcome = Error (Gateway.Worker_lost _); _ } ] -> ()
  | [ response ] ->
    Alcotest.fail ("expected Worker_lost, got " ^ render_response response)
  | _ -> Alcotest.fail "expected exactly one response");
  check_bool "ping timeouts counted" true
    (counter_value gateway "gateway.ping_timeouts" >= 1);
  check_bool "the wedged worker went through the restart path" true
    (counter_value gateway "gateway.worker_restarts" >= 1)

(* ------------------------------- memo ------------------------------- *)

(* [submit] one request; its response if it completed inside the call. *)
let submit_now gateway request =
  let got = ref None in
  Gateway.submit gateway ~on_complete:(fun response -> got := Some response)
    request;
  !got

let body_of (response : Gateway.response) =
  match response.Gateway.outcome with
  | Ok body -> body
  | Error error -> Alcotest.fail (Gateway.error_message error)

let memo_bytes gateway =
  Metrics.gauge_value
    (Metrics.gauge (Gateway.metrics gateway) "gateway.memo_bytes")

(* A repeat is answered by the master inside [submit], with the body the
   first response carried: no pump, no pending, no worker frame. *)
let test_memo_hit_inside_submit () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway { Gateway.default_config with Gateway.procs = 2 }
  @@ fun gateway ->
  let first =
    match Gateway.run_batch gateway [ request ] with
    | [ response ] -> response
    | _ -> Alcotest.fail "expected one response"
  in
  check_bool "the first request is a miss" false first.Gateway.cache_hit;
  check_bool "its body is held" true (memo_bytes gateway > 0.);
  let hit id =
    match submit_now gateway { request with Service.id } with
    | Some response -> response
    | None -> Alcotest.fail (id ^ " did not complete inside submit")
  in
  let a = hit "repeat-a" in
  check_bool "a memo hit" true a.Gateway.cache_hit;
  check_string "its own id" "repeat-a" a.Gateway.id;
  check_int "nothing in flight" 0 (Gateway.inflight gateway);
  check_bool "the body the first response carried" true
    (body_of a == body_of first);
  let b = hit "repeat-b" in
  check_bool "two hits carry the same body" true (body_of a == body_of b);
  check_int "hits counted" 2 (counter_value gateway "gateway.memo_hits");
  check_int "every request counted ok" 3
    (counter_value gateway "gateway.requests_ok")

(* Without a cache there is no memo: the repeat goes to a worker and
   pays the modeled service time again. *)
let test_no_memo_without_cache () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  let fetch_s = 0.2 in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      service = slow_service fetch_s
    }
  @@ fun gateway ->
  ignore (Gateway.run_batch gateway [ request ]);
  let started = Unix.gettimeofday () in
  let got = ref None in
  Gateway.submit gateway ~on_complete:(fun response -> got := Some response)
    request;
  check_bool "not answered inside submit" true (!got = None);
  check_int "in flight to a worker" 1 (Gateway.inflight gateway);
  pump_until gateway (fun () -> !got <> None);
  let elapsed = Unix.gettimeofday () -. started in
  check_bool
    (Printf.sprintf "the repeat paid the service time (%.3f s)" elapsed)
    true (elapsed >= fetch_s);
  check_bool "not a hit" false (Option.get !got).Gateway.cache_hit;
  check_int "no memo hit" 0 (counter_value gateway "gateway.memo_hits");
  check_bool "no memo bytes" true (memo_bytes gateway = 0.)

(* Draining and an exhausted per-site quota refuse a would-be hit
   before the memo is read. *)
let test_memo_behind_drain_and_quota () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  (with_gateway
     { Gateway.default_config with
       Gateway.procs = 2;
       site_quota_rps = Some 0.1
     }
   @@ fun gateway ->
   ignore (Gateway.run_batch gateway [ request ]);
   (match submit_now gateway { request with Service.id = "over-quota" } with
   | Some { Gateway.outcome = Error (Gateway.Quota_exceeded { site; _ }); _ }
     ->
     check_string "refused for its site" "ButlerCounty" site
   | Some response ->
     Alcotest.fail ("expected Quota_exceeded, got " ^ render_response response)
   | None -> Alcotest.fail "the refusal did not complete inside submit");
   (* the same input under another site label is a hit *)
   (match submit_now gateway { request with Service.site = "another-site" } with
   | Some response -> check_bool "a hit" true response.Gateway.cache_hit
   | None -> Alcotest.fail "the hit did not complete inside submit");
   check_int "one memo hit" 1 (counter_value gateway "gateway.memo_hits"));
  with_gateway { Gateway.default_config with Gateway.procs = 2 }
  @@ fun gateway ->
  ignore (Gateway.run_batch gateway [ request ]);
  Gateway.install_sigterm gateway;
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default)
  @@ fun () ->
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  pump_until gateway (fun () -> Gateway.draining gateway);
  (match submit_now gateway request with
  | Some response ->
    check_bool "refused with Draining" true
      (response.Gateway.outcome = Error Gateway.Draining)
  | None -> Alcotest.fail "the refusal did not complete inside submit");
  check_int "no memo hit" 0 (counter_value gateway "gateway.memo_hits")

(* A hit needs no worker: with both killed and restarting, the memo
   still answers, and nothing is re-dispatched. *)
let test_memo_hit_without_workers () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      backoff_s = 30.;
      backoff_cap_s = 30.
    }
  @@ fun gateway ->
  ignore (Gateway.run_batch gateway [ request ]);
  List.iter
    (fun (_, pid) -> Unix.kill pid Sys.sigkill)
    (Gateway.worker_pids gateway);
  pump_until gateway (fun () -> Gateway.worker_pids gateway = []);
  (match submit_now gateway request with
  | Some response ->
    check_bool "a hit" true response.Gateway.cache_hit;
    check_string "the first response's segmentation"
      (List.hd (sequential_reference [ request ]))
      (render_response response)
  | None -> Alcotest.fail "the hit did not complete inside submit");
  check_int "both workers restarting" 2
    (counter_value gateway "gateway.worker_restarts");
  check_int "nothing re-dispatched" 0
    (counter_value gateway "gateway.redispatches")

(* Workers that sleep [fetch_s] inside every request that reaches them,
   with the cache on: the master's memo answers repeats and in-flight
   inputs are joined. *)
let slow_cached_service fetch_s =
  { Service.default_config with Service.simulated_fetch_s = fetch_s }

let dispatched_frames gateway =
  (Metrics.summary
     (Metrics.histogram (Gateway.metrics gateway) "gateway.dispatch_seconds"))
    .Metrics.count

(* A copy submitted while the first request is in flight joins its
   frame: it is answered with the first one's body, as a hit, and no
   second frame goes to any worker. *)
let test_copy_joins_frame_in_flight () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      service = slow_cached_service 0.3
    }
  @@ fun gateway ->
  let copy = { request with Service.id = "copy" } in
  let responses = submit_all gateway [ request; copy ] in
  check_bool "the copy is not answered inside submit" true
    (responses.(1) = None);
  check_int "both in flight" 2 (Gateway.inflight gateway);
  pump_until gateway (resolved responses);
  let first = Option.get responses.(0) and second = Option.get responses.(1) in
  check_bool "the first is a miss" false first.Gateway.cache_hit;
  check_bool "the copy is a hit" true second.Gateway.cache_hit;
  check_string "the copy keeps its id" "copy" second.Gateway.id;
  check_bool "the copy carries the first one's body" true
    (body_of second == body_of first);
  check_int "one frame reached a worker" 1 (dispatched_frames gateway);
  check_int "the copy counted as a memo hit" 1
    (counter_value gateway "gateway.memo_hits");
  check_int "both counted" 2 (counter_value gateway "gateway.requests_total")

(* A copy keeps its own deadline: the first request expires while its
   frame still grinds, and the copy, submitted later, is answered with
   the frame's late answer within its own deadline. *)
let test_copy_keeps_its_deadline () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      deadline_s = Some 0.6;
      service = slow_cached_service 0.8
    }
  @@ fun gateway ->
  let first = submit_all gateway [ request ] in
  let later = Unix.gettimeofday () +. 0.4 in
  pump_until gateway (fun () -> Unix.gettimeofday () >= later);
  let copy = submit_all gateway [ { request with Service.id = "copy" } ] in
  pump_until gateway (resolved first);
  (match first.(0) with
  | Some { Gateway.outcome = Error Gateway.Deadline_exceeded; _ } -> ()
  | _ -> Alcotest.fail "the first request should have expired");
  check_bool "the copy outlives the first one's deadline" true
    (copy.(0) = None);
  pump_until gateway (resolved copy);
  let answer = Option.get copy.(0) in
  check_bool "the copy is a hit" true answer.Gateway.cache_hit;
  check_string "with the frame's segmentation"
    (List.hd (sequential_reference [ request ]))
    (render_response answer);
  check_int "one frame reached a worker" 1 (dispatched_frames gateway)

(* When no worker will answer the frame, the copy joined to it is lost
   with it: both workers that take the first request die holding it. *)
let test_copy_of_lost_request () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      max_restarts = 2;
      backoff_s = 0.01;
      service = slow_cached_service 1.0
    }
  @@ fun gateway ->
  let responses =
    submit_all gateway [ request; { request with Service.id = "copy" } ]
  in
  kill_busy_worker gateway;
  kill_busy_worker gateway;
  pump_until gateway (resolved responses);
  Array.iter
    (function
      | Some { Gateway.outcome = Error (Gateway.Worker_lost _); _ } -> ()
      | Some response ->
        Alcotest.fail ("expected Worker_lost, got " ^ render_response response)
      | None -> assert false)
    responses;
  check_int "only the frame was re-dispatched" 1
    (counter_value gateway "gateway.redispatches")

(* An [Ok] answer that arrives after its request expired still fills
   the memo: the next request for that input is answered inside
   [submit]. *)
let test_late_answer_fills_memo () =
  let request = List.hd (requests_of [ "ButlerCounty" ]) in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      deadline_s = Some 0.1;
      service = slow_cached_service 0.3
    }
  @@ fun gateway ->
  (match Gateway.run_batch gateway [ request ] with
  | [ { Gateway.outcome = Error Gateway.Deadline_exceeded; _ } ] -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  pump_until gateway (fun () ->
      counter_value gateway "gateway.late_responses" = 1);
  match submit_now gateway { request with Service.id = "repeat" } with
  | Some response ->
    check_bool "a memo hit" true response.Gateway.cache_hit;
    check_string "the late answer's segmentation"
      (List.hd (sequential_reference [ request ]))
      (render_response response)
  | None -> Alcotest.fail "the repeat did not complete inside submit"

(* More distinct bodies than a 1 MB budget holds: the memo's bytes stay
   within it, and the oldest body is the one evicted. *)
let test_memo_within_budget () =
  let base = List.hd (requests_of [ "ButlerCounty" ]) in
  (* one page's input under 150 distinct keys: each detail page ends
     in a comment naming the request *)
  let requests =
    List.init 150 (fun i ->
        let suffix = Printf.sprintf "<!-- %d -->" i in
        {
          base with
          Service.id = Printf.sprintf "budget#%d" i;
          input =
            {
              base.Service.input with
              Tabseg.Pipeline.detail_pages =
                List.map
                  (fun page -> page ^ suffix)
                  base.Service.input.Tabseg.Pipeline.detail_pages;
            };
        })
  in
  let budget = 1024 * 1024 in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      service =
        { Service.default_config with
          Service.cache =
            Some { Cache.capacity_mb = 1 }
        }
    }
  @@ fun gateway ->
  let responses = Gateway.run_batch gateway requests in
  let served =
    List.fold_left
      (fun acc response ->
        acc + String.length (body_of response :> string))
      0 responses
  in
  check_bool
    (Printf.sprintf "the bodies (%d bytes) exceed the budget" served)
    true (served > budget);
  let held = memo_bytes gateway in
  check_bool
    (Printf.sprintf "the memo holds %.0f bytes, within %d" held budget)
    true
    (held > 0. && held <= float_of_int budget);
  check_bool "the oldest body was evicted" true
    (submit_now gateway (List.hd requests) = None);
  check_bool "the newest is held" true
    (submit_now gateway (List.nth requests 149) <> None)

(* ----------------------------- draining ----------------------------- *)

let test_sigterm_drains () =
  (* Hot-site duplicates with a zero spill threshold: the batch that is
     in flight when SIGTERM lands includes spilled requests, so the
     drain guarantee is exercised across both placement paths. *)
  let requests = hot_requests ~count:6 in
  with_gateway
    { Gateway.default_config with
      Gateway.procs = 2;
      spill_threshold = Some 0;
      service = slow_service 0.15
    }
  @@ fun gateway ->
  Gateway.install_sigterm gateway;
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default)
  @@ fun () ->
  (* SIGTERM lands mid-batch (the sleeps keep the batch in flight);
     the in-flight work must still complete — drain, not abort. *)
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Unix.kill (Unix.getpid ()) Sys.sigterm)
  in
  let responses = Gateway.run_batch gateway requests in
  Domain.join killer;
  check_int "in-flight batch completed through the drain"
    (List.length requests) (List.length responses);
  List.iter
    (fun (response : Gateway.response) ->
      check_bool "drained request answered, not errored" true
        (Result.is_ok response.Gateway.outcome))
    responses;
  check_bool "gateway is draining" true (Gateway.draining gateway);
  check_bool "spilled requests were in flight during the drain" true
    (counter_value gateway "gateway.spilled" >= 1);
  (* New work is refused with the typed drain error. *)
  match Gateway.run_batch gateway requests with
  | [] -> Alcotest.fail "expected responses"
  | refused ->
    List.iter
      (fun (response : Gateway.response) ->
        check_bool "refused with Draining" true
          (response.Gateway.outcome = Error Gateway.Draining))
      refused

let () =
  Alcotest.run "gateway"
    [
      ( "wire",
        [
          Alcotest.test_case "frame roundtrip + stream + truncation" `Quick
            test_wire_roundtrip;
          Alcotest.test_case "forged 2 GB length header is refused" `Quick
            test_wire_forged_length;
          Alcotest.test_case "damage decodes as typed errors" `Quick
            test_wire_damage_typed;
          Alcotest.test_case "frame bytes pinned" `Quick test_wire_frame_bytes;
        ] );
      ( "conn",
        [
          Alcotest.test_case "frames cut anywhere decode whole, in order"
            `Quick test_conn_frames_cut_anywhere;
          Alcotest.test_case "a 4 MB frame is buffered in linear time" `Quick
            test_conn_large_frame_linear;
          Alcotest.test_case "a header's claimed length is not allocated"
            `Quick test_conn_header_claim_not_allocated;
        ] );
      ( "merge",
        [
          Alcotest.test_case "procs=2 byte-identical to sequential" `Slow
            test_procs2_matches_sequential;
          Alcotest.test_case "in-order under latency skew" `Slow
            test_inorder_merge_under_skew;
          Alcotest.test_case "bodies decode to the in-process result" `Quick
            test_bodies_decode_and_are_shared;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash mid-request recovers via re-dispatch"
            `Slow test_worker_crash_recovery;
          Alcotest.test_case "permanent crash is typed Worker_lost" `Slow
            test_worker_lost_is_typed;
          Alcotest.test_case "deadline expiry at the master" `Quick
            test_gateway_deadline;
          Alcotest.test_case "a restarting slot keeps its neighbour's index"
            `Quick test_restarting_slot_keeps_indices;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "spill cuts the hot-site tail, bytes identical"
            `Slow test_spill_on_vs_off;
          Alcotest.test_case "quota rejection is typed and site-scoped" `Slow
            test_quota_hits_only_the_hot_site;
          Alcotest.test_case "same-tick quota hints are de-correlated" `Quick
            test_quota_hints_are_decorrelated;
          Alcotest.test_case "shed-vs-queue under an impossible deadline"
            `Slow test_shed_vs_queue_under_impossible_deadline;
          Alcotest.test_case "ping timeout restarts a wedged worker" `Slow
            test_ping_timeout_restarts_wedged_worker;
        ] );
      ( "memo",
        [
          Alcotest.test_case "a repeat is answered inside submit" `Quick
            test_memo_hit_inside_submit;
          Alcotest.test_case "no memo without a cache" `Quick
            test_no_memo_without_cache;
          Alcotest.test_case "draining and quota refuse a would-be hit" `Quick
            test_memo_behind_drain_and_quota;
          Alcotest.test_case "a hit needs no live worker" `Quick
            test_memo_hit_without_workers;
          Alcotest.test_case "the memo stays within its budget" `Slow
            test_memo_within_budget;
          Alcotest.test_case "a copy in flight joins the first's frame"
            `Quick test_copy_joins_frame_in_flight;
          Alcotest.test_case "a copy keeps its own deadline" `Quick
            test_copy_keeps_its_deadline;
          Alcotest.test_case "the copy of a lost request is lost" `Slow
            test_copy_of_lost_request;
          Alcotest.test_case "a late Ok answer fills the memo" `Quick
            test_late_answer_fills_memo;
        ] );
      (* Last on purpose: the killer Domain.spawn below must come after
         every fork in this process (fork-after-domain hazard). *)
      ( "draining",
        [
          Alcotest.test_case "SIGTERM drains in-flight work" `Quick
            test_sigterm_drains;
        ] );
    ]
