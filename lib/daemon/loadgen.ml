module Conn = Tabseg_gateway.Conn
module Gateway = Tabseg_gateway.Gateway
module Service = Tabseg_serve.Service

type mode =
  | Open_loop of { rate : float }
  | Closed_loop of { pipeline : int }

type config = {
  address : Protocol.address;
  connections : int;
  mode : mode;
  duration_s : float;
  drain_timeout_s : float;
  seed : int;
  auth_token : string option;
  client : string;
  sites : (string * Tabseg.Pipeline.input) array;
  zipf_exponent : float;
  retry_quota : bool;
  max_retries : int;
  expected : (string * string) list;
}

let default_config =
  {
    address = Protocol.Unix_socket "tabseg.sock";
    connections = 4;
    mode = Closed_loop { pipeline = 1 };
    duration_s = 2.0;
    drain_timeout_s = 10.0;
    seed = 42;
    auth_token = None;
    client = "loadgen";
    sites = [||];
    zipf_exponent = 0.;
    retry_quota = false;
    max_retries = 3;
    expected = [];
  }

type stats = {
  offered : int;
  completed : int;
  ok : int;
  failed : int;
  errors : (string * int) list;
  retried : int;
  recovered : int;
  abandoned : int;
  mismatches : int;
  wall_s : float;
  rps : float;
  goodput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* One logical request across its retry attempts: the id (and the
   latency clock) survives a quota rejection, only the wire seq is
   fresh per attempt. *)
type job = {
  j_id : string;
  j_site : string;
  j_input : Tabseg.Pipeline.input;
  j_first : float;  (* scheduled arrival — latency measures from here *)
  mutable j_attempts : int;  (* quota rejections absorbed so far *)
}

type lconn = {
  l_chan : unit Conn.t;
  mutable l_up : bool;  (* Welcome received *)
  mutable l_window : int;
  mutable l_next_seq : int;
  l_inflight : (int, job) Hashtbl.t;  (* seq -> job *)
  l_queue : job Queue.t;  (* admitted to this conn, waiting for window *)
  mutable l_dead : bool;
}

let error_label = function
  | Gateway.Worker_lost _ -> "worker_lost"
  | Gateway.Gateway_overloaded _ -> "overloaded"
  | Gateway.Quota_exceeded _ -> "quota_exceeded"
  | Gateway.Shed _ -> "shed"
  | Gateway.Deadline_exceeded -> "deadline"
  | Gateway.Draining -> "draining"
  | Gateway.Service_error _ -> "service_error"

(* The Zipf CDF construction is shared with the bench harness
   ({!Tabseg_sitegen.Prng.zipf_cdf}); the uniform draw stays on this
   generator's own seeded [Random.State]. *)
let zipf_sampler ~state ~n ~exponent =
  let cdf = Tabseg_sitegen.Prng.zipf_cdf ~n ~exponent in
  fun () -> Tabseg_sitegen.Prng.zipf_index cdf (Random.State.float state 1.0)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) rank))
  end

let now () = Unix.gettimeofday ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect_nonblocking address =
  match address with
  | Protocol.Unix_socket path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_UNIX path);
       Unix.set_nonblock fd
     with e ->
       close_quietly fd;
       raise e);
    fd
  | Protocol.Tcp (host, port) ->
    let addr =
      match Unix.inet_addr_of_string host with
      | addr -> addr
      | exception _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       Unix.connect fd (Unix.ADDR_INET (addr, port));
       Unix.set_nonblock fd
     with e ->
       close_quietly fd;
       raise e);
    fd

let run cfg =
  if Array.length cfg.sites = 0 then Error "loadgen: empty site universe"
  else if cfg.connections < 1 then Error "loadgen: need at least 1 connection"
  else begin
    (* A server draining mid-run closes sockets we are still writing to;
       that must surface as per-connection failures, not SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let rng = Random.State.make [| cfg.seed; 0x10adf3; Array.length cfg.sites |] in
    let draw_site =
      if cfg.zipf_exponent <= 0. then fun () ->
        Random.State.int rng (Array.length cfg.sites)
      else
        zipf_sampler ~state:rng ~n:(Array.length cfg.sites)
          ~exponent:cfg.zipf_exponent
    in
    let connect_all () =
      let made = ref [] in
      match
        Array.init cfg.connections (fun _ ->
            let fd = connect_nonblocking cfg.address in
            made := fd :: !made;
            let chan = Conn.create fd in
            Conn.send chan
              (Protocol.encode
                 (Protocol.Hello
                    { client = cfg.client; token = cfg.auth_token }));
            {
              l_chan = chan;
              l_up = false;
              l_window = 0;
              l_next_seq = 0;
              l_inflight = Hashtbl.create 16;
              l_queue = Queue.create ();
              l_dead = false;
            })
      with
      | conns -> Ok conns
      | exception Unix.Unix_error (err, fn, _) ->
        List.iter close_quietly !made;
        Error (Printf.sprintf "loadgen: %s failed: %s" fn
                 (Unix.error_message err))
    in
    match connect_all () with
    | Error why -> Error why
    | Ok conns -> begin
      let fatal = ref None in
      let offered = ref 0 in
      let completed = ref 0 in
      let ok = ref 0 in
      let failed = ref 0 in
      let retried = ref 0 in
      let recovered = ref 0 in
      let abandoned = ref 0 in
      let mismatches = ref 0 in
      let errors : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let latencies = ref [] in
      let next_id = ref 0 in
      let start = now () in
      let arrivals_end = start +. cfg.duration_s in
      let hard_stop = arrivals_end +. cfg.drain_timeout_s in
      let last_completion = ref start in
      let retries = ref [] in (* (due, job), unsorted — scanned *)
      let rr = ref 0 in
      let make_job at =
        let site, input = cfg.sites.(draw_site ()) in
        let id = Printf.sprintf "lg-%d" !next_id in
        incr next_id;
        incr offered;
        { j_id = id; j_site = site; j_input = input; j_first = at;
          j_attempts = 0 }
      in
      let assign job =
        (* Round-robin across live connections: deterministic and
           fair; a dead conn's share shifts to the survivors. *)
        let n = Array.length conns in
        let rec pick tries =
          if tries >= n then None
          else begin
            let c = conns.(!rr mod n) in
            incr rr;
            if c.l_dead then pick (tries + 1) else Some c
          end
        in
        match pick 0 with
        | Some c -> Queue.push job c.l_queue
        | None -> ()
      in
      let tally_error label =
        Hashtbl.replace errors label
          (1 + Option.value (Hashtbl.find_opt errors label) ~default:0)
      in
      let finish_failure _job error =
        incr completed;
        incr failed;
        tally_error (error_label error);
        (match error with
        | Gateway.Quota_exceeded _ -> incr abandoned
        | _ -> ());
        last_completion := now ()
      in
      let complete_job job (reply : Protocol.reply) =
        match reply.Protocol.outcome with
        | Ok result ->
          incr completed;
          incr ok;
          if job.j_attempts > 0 then incr recovered;
          let at = now () in
          last_completion := at;
          latencies := (at -. job.j_first) :: !latencies;
          (match List.assoc_opt job.j_site cfg.expected with
          | None -> ()
          | Some expected ->
            let rendered =
              Format.asprintf "%a" Tabseg.Segmentation.pp
                result.Tabseg.Api.segmentation
            in
            if rendered <> expected then incr mismatches)
        | Error (Gateway.Quota_exceeded { retry_after_s; _ })
          when cfg.retry_quota && job.j_attempts < cfg.max_retries ->
          job.j_attempts <- job.j_attempts + 1;
          incr retried;
          (* The hint is a floor, not a reservation. The gateway now
             spreads same-tick hints over successive refill instants,
             but a hint is only advice about one bucket at one moment:
             client-side exponential backoff plus seeded jitter still
             de-correlates repeat offenders and co-operating herds the
             server never saw together. *)
          let base = Float.max retry_after_s 0.001 in
          let backoff =
            base *. Float.pow 2. (float_of_int (job.j_attempts - 1))
          in
          let jitter = Random.State.float rng (0.5 *. backoff) in
          retries := (now () +. backoff +. jitter, job) :: !retries
        | Error error -> finish_failure job error
      in
      let kill_conn conn =
        if not conn.l_dead then begin
          conn.l_dead <- true;
          close_quietly (Conn.fd conn.l_chan);
          Hashtbl.iter
            (fun _ job -> finish_failure job (Gateway.Worker_lost "connection lost"))
            conn.l_inflight;
          Hashtbl.reset conn.l_inflight;
          Queue.iter
            (fun job -> finish_failure job (Gateway.Worker_lost "connection lost"))
            conn.l_queue;
          Queue.clear conn.l_queue
        end
      in
      let handle_message conn = function
        | Protocol.Welcome { max_conn_inflight; _ } ->
          conn.l_up <- true;
          conn.l_window <-
            (match cfg.mode with
            | Open_loop _ -> max max_conn_inflight 1
            | Closed_loop { pipeline } ->
              max 1 (min pipeline (max max_conn_inflight 1)))
        | Protocol.Rejected { reason } ->
          fatal := Some ("handshake rejected: " ^ reason);
          kill_conn conn
        | Protocol.Reply { seq; reply } -> (
          match Hashtbl.find_opt conn.l_inflight seq with
          | None -> () (* duplicate or stale; server bug — ignore *)
          | Some job ->
            Hashtbl.remove conn.l_inflight seq;
            complete_job job reply)
        | Protocol.Stats _ -> ()
        | Protocol.Hello _ | Protocol.Submit _ | Protocol.Stats_request
        | Protocol.Goodbye ->
          fatal := Some "protocol violation from server";
          kill_conn conn
      in
      let pump_conn at conn =
        if conn.l_up && not conn.l_dead then begin
          (match cfg.mode with
          | Closed_loop _ ->
            (* Top the pipeline up while arrivals are open. *)
            while
              at < arrivals_end
              && Hashtbl.length conn.l_inflight + Queue.length conn.l_queue
                 < conn.l_window
            do
              Queue.push (make_job at) conn.l_queue
            done
          | Open_loop _ -> ());
          while
            Hashtbl.length conn.l_inflight < conn.l_window
            && not (Queue.is_empty conn.l_queue)
          do
            let job = Queue.pop conn.l_queue in
            let seq = conn.l_next_seq in
            conn.l_next_seq <- seq + 1;
            Hashtbl.replace conn.l_inflight seq job;
            let request =
              {
                Service.id = job.j_id;
                site = job.j_site;
                input = job.j_input;
              }
            in
            Conn.send conn.l_chan
              (Protocol.encode (Protocol.Submit { seq; request }))
          done
        end
      in
      (* Open-loop arrival clock: the i-th request is due at
         start + i/rate, whatever the server is doing. *)
      let next_arrival = ref 0 in
      let arrival_due i rate = start +. (float_of_int i /. rate) in
      let release_arrivals at =
        match cfg.mode with
        | Closed_loop _ -> ()
        | Open_loop { rate } ->
          if rate > 0. then
            while
              arrival_due !next_arrival rate <= at
              && arrival_due !next_arrival rate < arrivals_end
            do
              let due = arrival_due !next_arrival rate in
              incr next_arrival;
              assign (make_job due)
            done
      in
      let release_retries at =
        let due, later = List.partition (fun (d, _) -> d <= at) !retries in
        retries := later;
        List.iter (fun (_, job) -> assign job) due
      in
      let all_idle () =
        !retries = []
        && Array.for_all
             (fun c ->
               c.l_dead
               || (Hashtbl.length c.l_inflight = 0
                  && Queue.is_empty c.l_queue
                  && not (Conn.pending_output c.l_chan)))
             conns
      in
      let arrivals_done at =
        match cfg.mode with
        | Closed_loop _ -> at >= arrivals_end
        | Open_loop { rate } ->
          rate <= 0. || arrival_due !next_arrival rate >= arrivals_end
      in
      let timeout_until at =
        let soonest = ref 0.25 in
        let note d = if d -. at < !soonest then soonest := Float.max (d -. at) 0. in
        (match cfg.mode with
        | Open_loop { rate } when rate > 0. ->
          if arrival_due !next_arrival rate < arrivals_end then
            note (arrival_due !next_arrival rate)
        | _ -> ());
        List.iter (fun (d, _) -> note d) !retries;
        note hard_stop;
        !soonest
      in
      let running = ref true in
      while !running do
        let at = now () in
        if !fatal <> None then running := false
        else if at > hard_stop then running := false
        else if arrivals_done at && all_idle () then running := false
        else if Array.for_all (fun c -> c.l_dead) conns then running := false
        else begin
          release_arrivals at;
          release_retries at;
          Array.iter (fun c -> pump_conn at c) conns;
          let live = Array.to_list conns |> List.filter (fun c -> not c.l_dead) in
          let reads = List.map (fun c -> Conn.fd c.l_chan) live in
          let writes =
            live
            |> List.filter (fun c -> Conn.pending_output c.l_chan)
            |> List.map (fun c -> Conn.fd c.l_chan)
          in
          (match Unix.select reads writes [] (timeout_until at) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, _, _ ->
            List.iter
              (fun conn ->
                if
                  (not conn.l_dead)
                  && List.mem (Conn.fd conn.l_chan) readable
                then begin
                  let { Conn.frames; closed; _ } = Conn.read_step conn.l_chan in
                  List.iter
                    (fun payload ->
                      if not conn.l_dead then
                        match Protocol.decode_payload payload with
                        | Ok message -> handle_message conn message
                        | Error why ->
                          fatal := Some ("undecodable frame: " ^ why);
                          kill_conn conn)
                    frames;
                  match closed with
                  | Some _ -> kill_conn conn
                  | None -> ()
                end)
              live);
          let at = now () in
          release_retries at;
          Array.iter (fun c -> pump_conn at c) conns;
          Array.iter
            (fun conn ->
              if (not conn.l_dead) && Conn.pending_output conn.l_chan then
                match Conn.write_step conn.l_chan with
                | `Closed -> kill_conn conn
                | `Sent _ -> ())
            conns
        end
      done;
      Array.iter
        (fun conn ->
          if not conn.l_dead then begin
            Conn.send conn.l_chan (Protocol.encode Protocol.Goodbye);
            (match Conn.write_step conn.l_chan with _ -> ());
            conn.l_dead <- true;
            close_quietly (Conn.fd conn.l_chan)
          end)
        conns;
      match !fatal with
      | Some why -> Error why
      | None ->
        let wall = Float.max (!last_completion -. start) 1e-9 in
        let lat = Array.of_list !latencies in
        Array.sort compare lat;
        let ms s = s *. 1000. in
        let mean =
          if Array.length lat = 0 then 0.
          else Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat)
        in
        Ok
          {
            offered = !offered;
            completed = !completed;
            ok = !ok;
            failed = !failed;
            errors =
              Hashtbl.fold (fun k v acc -> (k, v) :: acc) errors []
              |> List.sort compare;
            retried = !retried;
            recovered = !recovered;
            abandoned = !abandoned;
            mismatches = !mismatches;
            wall_s = wall;
            rps = float_of_int !completed /. wall;
            goodput_rps = float_of_int !ok /. wall;
            mean_ms = ms mean;
            p50_ms = ms (percentile lat 0.50);
            p95_ms = ms (percentile lat 0.95);
            p99_ms = ms (percentile lat 0.99);
            max_ms =
              (if Array.length lat = 0 then 0.
               else ms lat.(Array.length lat - 1));
          }
    end
  end
