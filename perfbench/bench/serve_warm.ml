(* serve-warm: the deployed daemon serving memo hits under load.

   The daemon under test is the built [tabseg serve] executable, exec'd in
   its default configuration (CSP, two worker processes, 64 MB cache per
   worker) with a persistent store in a fresh directory, listening on a
   Unix socket; it is its own process, not a fork of the generator. The
   benchmark process is the only traffic generator. The request universe,
   the 24 Table 4 pages and 200 seeded corpus pages, is segmented once
   during set-up. A run starts, warms and measures three daemons in turn,
   and each serves slices of two phases:

   - latency: [Loadgen] in closed loop over one connection with one
     request in flight, each request timed from send to reply and every
     reply checked against the in-process reference. (An open loop at
     100 req/s was tried first: between requests the CPU idles, and its
     p95 moved from 2.7 to 6.1 ms within one run with how fast the host
     woke the idle vCPU.)
   - capacity: one caller in closed loop keeping a window of requests in
     flight with [Client.submit_all]; ok replies per second.

   The generator, the daemon and its workers share one CPU, so capacity
   is the work per request on one CPU, not how two shared vCPUs are
   scheduled. Timings are scaled by the exchange kernel (see
   {!Common.Exchange}).

   Requests draw Zipf(1) over the universe, so every one is a memo hit:
   the daemon's edge, the gateway, the wire codecs and cache reads are
   the whole cost. *)

open Common
module Client = Tabseg_daemon.Client
module Loadgen = Tabseg_daemon.Loadgen
module Protocol = Tabseg_daemon.Protocol
module Service = Tabseg_serve.Service
module Cache = Tabseg_serve.Cache
module Wire = Tabseg_gateway.Wire

let method_ = Tabseg.Api.Csp
let corpus_sites = 200
let zipf_exponent = 1.0

(* Capacity-phase requests prepared per second of the phase: over three
   times today's capacity, so only a much faster daemon can run out of
   requests before the phase's time is up. *)
let capacity_ceiling = 5000.
let setups = 3  (* daemons per run, each started, warmed and measured;
                   setup_s is the median of their set-up times *)
let window = 8  (* requests in flight in the capacity phase *)
let chunk = 128  (* capacity requests per submit_all call *)
let traced_requests = 200

(* The run's measuring time is cut into [slices] equal slices, each a
   latency phase ([latency_share] of the slice) followed by a
   capacity phase, spread evenly over the run's [setups] daemons. The run
   reports the median over slices of each phase's p50, p95 and ok replies
   per second, so neither a stall of the host nor one daemon's luck with
   where its memory landed sets the run's figures. *)
let slices = 6
let latency_share = 0.7
let capacity_share = 0.3

(* ------------------------------ files ------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let fresh_dir (run : run) name =
  let dir = Filename.concat run.work_dir name in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + du (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !lines)

(* ----------------------------- processes ---------------------------- *)

(* State and parent of a process, from /proc/PID/stat. *)
let proc_stat pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | Some (line :: _) -> (
    match String.rindex_opt line ')' with
    | None -> None
    | Some i -> (
      match String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2)) with
      | state :: ppid :: _ -> Some (state, int_of_string ppid)
      | _ -> None))
  | _ -> None

let children pid =
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun child ->
         match proc_stat child with Some (_, ppid) -> ppid = pid | None -> false)

let ended pid = match proc_stat pid with None | Some ("Z", _) -> true | Some _ -> false

(* Peak resident set of a process, from /proc/PID/status. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some lines ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; value ] -> (
          match String.split_on_char ' ' (String.trim value) with
          | kb :: _ -> int_of_string kb
          | [] -> acc)
        | _ -> acc)
      0 lines

type daemon = {
  pid : int;
  address : Protocol.address;
  store : string;
  dir : string;  (** its socket and store; removed when it stops *)
}

let wait_until ~timeout_s ready =
  let deadline = now () +. timeout_s in
  let rec loop () =
    if ready () then true
    else if now () > deadline then false
    else begin
      Unix.sleepf 0.005;
      loop ()
    end
  in
  loop ()

(* Stop the daemon with the production drain (SIGTERM), falling back to
   SIGKILL, wait until it and every worker it forked have ended, and
   remove its directory. *)
let stop (d : daemon) =
  let workers = children d.pid in
  let reaped () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_until ~timeout_s:30. reaped) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_until ~timeout_s:10. reaped)
  end;
  List.iter
    (fun w ->
      if not (wait_until ~timeout_s:10. (fun () -> ended w)) then
        try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ())
    workers;
  rm_rf d.dir

(* Exec the daemon and time it until its first accepted handshake. *)
let start (run : run) ~dir =
  let sock = Filename.concat dir "tabseg.sock" in
  let store = Filename.concat dir "store.tabstore" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let started = now () in
  let pid =
    Unix.create_process run.cli
      [| run.cli; "serve"; "--listen"; "unix:" ^ sock; "--store"; store |]
      null null Unix.stderr
  in
  Unix.close null;
  let d = { pid; address = Protocol.Unix_socket sock; store; dir } in
  let rec handshake () =
    match Client.connect ~client:"perfbench-setup" d.address with
    | Ok client ->
      Client.close client;
      now () -. started
    | Error _ ->
      let exited =
        match Unix.waitpid [ Unix.WNOHANG ] pid with (0, _) -> false | _ -> true
      in
      if exited then failwith "tabseg serve exited during start-up"
      else if now () -. started > 60. then begin
        stop d;
        failwith "tabseg serve did not accept a handshake within 60 s"
      end
      else begin
        Unix.sleepf 0.001;
        handshake ()
      end
  in
  let setup_s = handshake () in
  (d, setup_s)

let with_client (d : daemon) f =
  match Client.connect ~client:"perfbench" d.address with
  | Error e -> failwith (Client.connect_error_message e)
  | Ok client -> Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let stats d =
  with_client d (fun client ->
      match Client.stats client with
      | Ok stats -> stats
      | Error e -> failwith (Client.error_message e))

let failure_counters =
  [ "gateway.requests_failed"; "gateway.worker_restarts"; "daemon.protocol_errors" ]

let peak_rss_mb (d : daemon) =
  let kb = List.fold_left (fun acc pid -> acc + vm_hwm_kb pid) 0 (d.pid :: children d.pid) in
  float_of_int kb /. 1024.

(* ------------------------------ inputs ------------------------------ *)

let request (page : Inputs.page) =
  { Service.id = page.Inputs.name; site = page.Inputs.name; input = page.Inputs.input }

type plan = {
  universe : Inputs.page array;  (** segmented at set-up, drawn by both phases *)
  capacity_sites : Inputs.page array;  (** the closed-loop sequence *)
  checked : (string, Tabseg.Segmentation.t * string) Hashtbl.t;
      (** name -> the in-process reference segmentation and its rendering *)
  accuracy : Accuracy.t;
  reference_failures : int;
}

let plan (run : run) =
  let universe =
    Array.of_list
      (Inputs.paper_pages ()
      @ Inputs.corpus_pages ~sample:4 ~seed:run.seed ~sites:corpus_sites ~tag:"warm" ())
  in
  let cdf = Tabseg_sitegen.Prng.zipf_cdf ~n:(Array.length universe) ~exponent:zipf_exponent in
  let rng = Random.State.make [| run.seed; 0x21bf |] in
  let capacity_sites =
    Array.init
      (Float.to_int (capacity_ceiling *. capacity_share *. run.seconds))
      (fun _ -> universe.(Tabseg_sitegen.Prng.zipf_index cdf (Random.State.float rng 1.0)))
  in
  (* The in-process reference of the same commit for every served answer. *)
  let checked = Hashtbl.create 512 and accuracy = Accuracy.create () in
  let reference_failures = ref 0 in
  Array.iter
    (fun (page : Inputs.page) ->
      match Tabseg.Api.segment_result ~method_ page.Inputs.input with
      | Ok result ->
        let segmentation = result.Tabseg.Api.segmentation in
        Hashtbl.replace checked page.Inputs.name (segmentation, render segmentation);
        Accuracy.add accuracy ~truth:page.Inputs.truth segmentation
      | Error _ -> incr reference_failures)
    universe;
  { universe; capacity_sites; checked; accuracy; reference_failures = !reference_failures }

(* A served reply is correct when it is Ok and equals the in-process
   reference segmentation value for value (cheaper for the generator than
   rendering; [Loadgen] compares renderings). *)
let reply_ok plan (page : Inputs.page) (reply : Protocol.reply) =
  match reply.Protocol.outcome with
  | Error _ -> false
  | Ok result -> (
    match Hashtbl.find_opt plan.checked page.Inputs.name with
    | None -> false
    | Some (expected, _) -> result.Tabseg.Api.segmentation = expected)

let warm_up plan d =
  let pages = Array.to_list plan.universe in
  with_client d (fun client ->
      match Client.submit_all client (List.map request pages) with
      | Error e -> failwith (Client.error_message e)
      | Ok replies ->
        List.fold_left2
          (fun bad page reply -> if reply_ok plan page reply then bad else bad + 1)
          0 pages replies)

(* Start and warm a daemon, run [f] on it and stop it. Returns the set-up
   time (exec to first accepted handshake, plus the warm-up), the warm-up
   replies that failed their check, and [f]'s result. *)
let with_daemon (run : run) plan ~instance f =
  let dir = fresh_dir run (Printf.sprintf "%s-%d" run.workload instance) in
  let d, handshake_s = start run ~dir in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let bad, warm_s = timed (fun () -> warm_up plan d) in
  (handshake_s +. warm_s, bad, f d)

(* ----------------------------- measuring ---------------------------- *)

let latency_phase plan d ~seed ~seconds =
  let expected =
    Array.to_list plan.universe
    |> List.filter_map (fun (page : Inputs.page) ->
           Option.map (fun (_, rendering) -> (page.Inputs.name, rendering))
             (Hashtbl.find_opt plan.checked page.Inputs.name))
  in
  let config =
    {
      Loadgen.default_config with
      Loadgen.address = d.address;
      connections = 1;
      mode = Loadgen.Closed_loop { pipeline = 1 };
      duration_s = seconds;
      seed;
      client = "perfbench";
      sites = Array.map (fun (p : Inputs.page) -> (p.Inputs.name, p.Inputs.input)) plan.universe;
      zipf_exponent;
      expected;
    }
  in
  match Loadgen.run config with
  | Ok stats -> stats
  | Error why -> failwith ("loadgen: " ^ why)

type capacity = { sent : int; good : int; bad : int; hits : int; seconds : float }

let capacity_phase plan d ~sites ~seconds =
  with_client d (fun client ->
      let started = now () in
      let total = Array.length sites in
      let rec loop i acc =
        if i >= total || now () -. started >= seconds then acc
        else begin
          let pages = Array.to_list (Array.sub sites i (min chunk (total - i))) in
          match Client.submit_all client ~window (List.map request pages) with
          | Error e -> failwith (Client.error_message e)
          | Ok replies ->
            let acc =
              List.fold_left2
                (fun acc page (reply : Protocol.reply) ->
                  let ok = reply_ok plan page reply in
                  {
                    acc with
                    sent = acc.sent + 1;
                    good = (acc.good + if ok then 1 else 0);
                    bad = (acc.bad + if ok then 0 else 1);
                    hits = (acc.hits + if reply.Protocol.cache_hit then 1 else 0);
                  })
                acc pages replies
            in
            loop (i + List.length pages) acc
        end
      in
      let result = loop 0 { sent = 0; good = 0; bad = 0; hits = 0; seconds = 0. } in
      { result with seconds = now () -. started })

let counter stats name = Option.value (List.assoc_opt name stats) ~default:0.

(* One slice's figures and the exchange kernel around each phase. *)
type slice = {
  latency : Loadgen.stats;
  capacity : capacity;
  latency_exchange : float;
  capacity_exchange : float;
}

let untraced (run : run) =
  let plan = plan run in
  Exchange.start ();
  Fun.protect ~finally:Exchange.stop @@ fun () ->
  let slice_s = run.seconds /. float_of_int slices in
  let per_slice = Array.length plan.capacity_sites / slices in
  let per_daemon = slices / setups in
  let cpu_before = cpu_seconds () in
  (* A calibration point before each daemon, after its warm-up, and after
     each phase; a set-up or phase is scaled by the mean of the points on
     either side of it. *)
  let daemons =
    List.init setups (fun k ->
        let before_setup = Exchange.point () in
        with_daemon run plan ~instance:k (fun d ->
            let after_setup = Exchange.point () in
            let slices =
              List.init per_daemon (fun j ->
                  let i = (k * per_daemon) + j in
                  let k0 = if j = 0 then after_setup else Exchange.point () in
                  let latency =
                    latency_phase plan d ~seed:((run.seed * slices) + i)
                      ~seconds:(latency_share *. slice_s)
                  in
                  let k1 = Exchange.point () in
                  let capacity =
                    capacity_phase plan d
                      ~sites:(Array.sub plan.capacity_sites (i * per_slice) per_slice)
                      ~seconds:(capacity_share *. slice_s)
                  in
                  let k2 = Exchange.point () in
                  {
                    latency;
                    capacity;
                    latency_exchange = (k0 +. k1) /. 2.;
                    capacity_exchange = (k1 +. k2) /. 2.;
                  })
            in
            ((before_setup +. after_setup) /. 2., slices, peak_rss_mb d, stats d)))
  in
  let loadgen_cpu_s = cpu_seconds () -. cpu_before in
  let setups_s = List.map (fun (s, _, _) -> s) daemons in
  let scaled_setups_s =
    List.map (fun (s, _, (exchange, _, _, _)) -> s *. Exchange.factor exchange) daemons
  in
  let warm_failures = List.fold_left (fun acc (_, bad, _) -> acc + bad) 0 daemons in
  let measured = List.concat_map (fun (_, _, (_, m, _, _)) -> m) daemons in
  let latencies = List.map (fun m -> m.latency) measured in
  let capacity =
    List.fold_left
      (fun acc { capacity = c; _ } ->
        {
          sent = acc.sent + c.sent;
          good = acc.good + c.good;
          bad = acc.bad + c.bad;
          hits = acc.hits + c.hits;
          seconds = acc.seconds +. c.seconds;
        })
      { sent = 0; good = 0; bad = 0; hits = 0; seconds = 0. } measured
  in
  let peak_mem_mb =
    Stats.median (Array.of_list (List.map (fun (_, _, (_, _, peak, _)) -> peak) daemons))
  in
  let counters =
    List.map
      (fun name ->
        ( name,
          List.fold_left (fun acc (_, _, (_, _, _, stats)) -> acc +. counter stats name) 0. daemons ))
      failure_counters
  in
  let counted = List.fold_left (fun acc (_, v) -> acc + Float.to_int v) 0 counters in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 latencies in
  let median f = Stats.median (Array.of_list (List.map f measured)) in
  let rate m = float_of_int m.capacity.good /. m.capacity.seconds in
  let offered = sum (fun l -> l.Loadgen.offered) in
  let completed = sum (fun l -> l.Loadgen.completed) in
  let open_failed = sum (fun l -> l.Loadgen.failed + l.Loadgen.mismatches) in
  let fewest_ok = List.fold_left (fun acc l -> min acc l.Loadgen.ok) max_int latencies in
  let attempted = Array.length plan.universe + offered + capacity.sent in
  let failed =
    warm_failures + plan.reference_failures + open_failed + capacity.bad + counted
    + (offered - completed)
  in
  if fewest_ok < 200 then failwith "a latency phase completed too few requests for a p95";
  let metrics, scale_notes =
    end_to_end
      ~raw:
        {
          setup_s = Stats.median (Array.of_list setups_s);
          throughput = median rate;
          p50_ms = median (fun m -> m.latency.Loadgen.p50_ms);
          tail_ms = median (fun m -> m.latency.Loadgen.p95_ms);
        }
      ~reported:
        {
          setup_s = Stats.median (Array.of_list scaled_setups_s);
          throughput = median (fun m -> rate m /. Exchange.factor m.capacity_exchange);
          p50_ms = median (fun m -> m.latency.Loadgen.p50_ms *. Exchange.factor m.latency_exchange);
          tail_ms = median (fun m -> m.latency.Loadgen.p95_ms *. Exchange.factor m.latency_exchange);
        }
      ~calibration:
        (Printf.sprintf
           "each phase and each daemon's set-up by the exchange kernel timed around it (reference %.0f ms); median exchange %.3f ms"
           (Exchange.reference_s *. 1e3)
           (median (fun m -> m.latency_exchange) *. 1e3))
      ~peak_mem_mb
      ~micro_f1:(Accuracy.micro_f1 plan.accuracy)
  in
  {
    attempted;
    failed;
    checks =
      [
        ("in-process references segmented", plan.reference_failures = 0);
        ("warm-up replies match the in-process reference", warm_failures = 0);
        ("latency phases: no failures, replies match the reference", open_failed = 0);
        ("latency phases: every offered request completed", completed = offered);
        ("capacity phases: replies Ok and match the reference", capacity.bad = 0);
        ("capacity phases: every reply a memo hit", capacity.hits = capacity.sent);
        ("daemon failure counters read 0", counted = 0);
      ];
    metrics;
    notes =
      [
        ("latency phases",
          Printf.sprintf "%d x Loadgen closed loop, one connection with one request in flight, for %.2f s: %d requests, fewest ok in a phase %d; median over phases of p50 and p95 from send to reply"
            slices (latency_share *. slice_s) offered fewest_ok);
        ("capacity phases",
          Printf.sprintf "%d x closed loop, one caller with window %d: %d sent, %d ok in %.2f s, %d memo hits; median over phases of ok replies per second"
            slices window capacity.sent capacity.good capacity.seconds capacity.hits);
        ("per phase, unscaled",
          String.concat "; "
            (List.map
               (fun m ->
                 Printf.sprintf "p50 %.3f p95 %.3f ms, %.0f/s" m.latency.Loadgen.p50_ms
                   m.latency.Loadgen.p95_ms (rate m))
               measured));
        ("universe", Printf.sprintf "%d pages, Zipf(%g)" (Array.length plan.universe) zipf_exponent);
        ("setup_s", Printf.sprintf "median of %d daemon start-ups: exec to first accepted handshake plus warm-up" setups);
        ("peak_mem_mb", "sum of VmHWM over the daemon and its workers, median over the daemons");
        ("daemon counters", String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) counters));
        ("generator cpu_s during phases", Report.number loadgen_cpu_s);
      ]
      @ scale_notes;
  }

(* The traced run: the same daemon set-up, then requests one at a time
   through the blocking client — timing the edge around each — and every
   request replayed in-process stage by stage. A replay must equal the
   served answer; a memo hit replays only what the server does for it. *)
let traced (run : run) =
  let plan = plan run in
  let pages =
    Array.to_list (Array.sub plan.capacity_sites 0 (min traced_requests (Array.length plan.capacity_sites)))
  in
  let trace = Trace.create () in
  let io () =
    match read_file "/proc/self/io" with
    | None -> (0, 0)
    | Some lines ->
      let field name =
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ key; value ] when key = name -> int_of_string (String.trim value)
            | _ -> acc)
          0 lines
      in
      (field "rchar", field "wchar")
  in
  (* reading /proc/self/io is itself a read; measure what one costs *)
  let io_read_bytes =
    let r0, _ = io () in
    let r1, _ = io () in
    r1 - r0
  in
  let _setup_s, warm_failures, (served, stats, store_bytes) =
    with_daemon run plan ~instance:0 @@ fun d ->
    let served =
      with_client d (fun client ->
          List.mapi
            (fun i page ->
              let r0, w0 = io () in
              let reply, client_s = timed (fun () -> Client.submit client (request page)) in
              let r1, w1 = io () in
              match reply with
              | Error e -> failwith (Client.error_message e)
              | Ok reply -> (i, page, reply, client_s, r1 - r0 - io_read_bytes, w1 - w0))
            pages)
    in
    (served, stats d, du d.store)
  in
  let infos = ref [] and mismatched = ref 0 and hits = ref 0 in
  let traced_s = ref [] and untraced_s = ref [] in
  let edge = ref [] and worker = ref [] and reply_bytes = ref [] and request_bytes = ref [] in
  List.iter
    (fun (i, (page : Inputs.page), (reply : Protocol.reply), client_s, read, written) ->
      edge := (client_s -. reply.Protocol.latency_s) :: !edge;
      worker := reply.Protocol.latency_s :: !worker;
      reply_bytes := float_of_int read :: !reply_bytes;
      request_bytes := float_of_int written :: !request_bytes;
      (* the codec's cost on this reply: encode, then decode the payload *)
      let frame =
        Trace.span trace ~request:i "daemon.encode" (fun () ->
            Protocol.encode (Protocol.Reply { seq = i; reply }))
      in
      (match Wire.decode_frame frame with
      | `Frame (payload, _) ->
        ignore
          (Trace.span trace ~request:i "daemon.decode" (fun () ->
               Protocol.decode_payload payload))
      | `Need_more | `Error _ -> incr mismatched);
      let input = page.Inputs.input in
      if reply.Protocol.cache_hit then begin
        incr hits;
        let _, t = timed (fun () -> Trace.span trace ~request:i "request" (fun () ->
            ignore (Trace.span trace "serve.request_key" (fun () -> Cache.request_key ~method_ input)))) in
        let _, u = timed (fun () -> Cache.request_key ~method_ input) in
        traced_s := t :: !traced_s;
        untraced_s := u :: !untraced_s;
        if not (reply_ok plan page reply) then incr mismatched
      end
      else begin
        let info, t =
          timed (fun () ->
              Trace.span trace ~request:i "request" (fun () ->
                  ignore (Trace.span trace "serve.request_key" (fun () -> Cache.request_key ~method_ input));
                  Layers.segment trace ~method_ input))
        in
        let _, u = timed (fun () -> ignore (Cache.request_key ~method_ input); Tabseg.Api.segment_result ~method_ input) in
        traced_s := t :: !traced_s;
        untraced_s := u :: !untraced_s;
        infos := info :: !infos;
        match reply.Protocol.outcome with
        | Error _ -> incr mismatched
        | Ok result ->
          if render result.Tabseg.Api.segmentation <> render info.Layers.segmentation then
            incr mismatched
      end)
    served;
  let spans = Trace.spans trace in
  let items = List.length served in
  let mean l = Stats.mean (Array.of_list l) in
  let counters = List.map (fun name -> (name, counter stats name)) failure_counters in
  let counted = List.fold_left (fun acc (_, v) -> acc + Float.to_int v) 0 counters in
  let values =
    Layers.stage_values spans ~items !infos
    @ [
        ("serve.worker_ms", ms (mean !worker));
        ("serve.request_key_ms", Layers.self_ms spans ~items [ "serve.request_key" ]);
        ("serve.cache_hit_ratio", float_of_int !hits /. float_of_int items);
        ("store.log_bytes", float_of_int store_bytes);
        ("daemon.edge_ms", ms (mean !edge));
        ("daemon.request_bytes", mean !request_bytes);
        ("daemon.reply_bytes", mean !reply_bytes);
        ("daemon.codec_ms", Layers.self_ms spans ~items [ "daemon.encode"; "daemon.decode" ]);
        ("trace.overhead_ms",
          ms (Stats.median (Array.of_list !traced_s) -. Stats.median (Array.of_list !untraced_s)));
      ]
    @ counters
  in
  {
    attempted = items + Array.length plan.universe;
    failed = !mismatched + warm_failures + counted;
    checks =
      [
        ("set-up warm-up replies match the in-process reference", warm_failures = 0);
        ("traced replay equals every served reply", !mismatched = 0);
        ("daemon failure counters read 0", counted = 0);
      ];
    metrics = Layers.metrics values;
    notes =
      [
        ("traced requests", Printf.sprintf "%d sequential, %d memo hits" items !hits);
        ("spans", write_spans run spans);
      ];
  }

let run (run : run) =
  if run.cli = "" || not (Sys.file_exists run.cli) then
    failwith "serve-warm needs --cli pointing at the built tabseg executable";
  if run.trace then traced run else untraced run
