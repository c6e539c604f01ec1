module Service = Tabseg_serve.Service
module Metrics = Tabseg_serve.Metrics
module Cache = Tabseg_serve.Cache
module Shard = Tabseg_serve.Shard
module Codec = Tabseg_store.Codec

type config = {
  procs : int;
  service : Service.config;
  deadline_s : float option;
  max_restarts : int;
  backoff_s : float;
  backoff_cap_s : float;
  spill_threshold : int option;
  site_quota_rps : float option;
  shed : bool;
  ping_timeout_s : float option;
}

let default_config =
  {
    procs = 1;
    service = Service.default_config;
    deadline_s = None;
    max_restarts = 5;
    backoff_s = 0.05;
    backoff_cap_s = 2.0;
    spill_threshold = None;
    site_quota_rps = None;
    shed = false;
    ping_timeout_s = None;
  }

type error =
  | Worker_lost of string
  | Gateway_overloaded of { inflight : int; capacity : int }
  | Quota_exceeded of { site : string; retry_after_s : float }
  | Shed of { predicted_s : float; deadline_s : float }
  | Deadline_exceeded
  | Draining
  | Service_error of Service.error

let error_message = function
  | Worker_lost why -> "worker lost: " ^ why
  | Gateway_overloaded { inflight; capacity } ->
    Printf.sprintf "gateway overloaded: %d requests in flight of %d allowed"
      inflight capacity
  | Quota_exceeded { site; retry_after_s } ->
    Printf.sprintf "per-site quota exceeded for %S: retry in %.3f s" site
      retry_after_s
  | Shed { predicted_s; deadline_s } ->
    Printf.sprintf
      "shed at admission: predicted completion in %.3f s would miss the %.3f \
       s deadline"
      predicted_s deadline_s
  | Deadline_exceeded -> "deadline exceeded at the gateway"
  | Draining -> "gateway is draining (shutdown in progress)"
  | Service_error e -> Service.error_message e

type 'a answer = {
  id : string;
  outcome : ('a, error) result;
  cache_hit : bool;
  latency_s : float;
}

type response = Codec.body answer

let result response = Result.map Codec.decode_body response.outcome

(* ----------------------- master-side plumbing ----------------------- *)

(* One live connection to a worker process. All buffering — the
   incremental inbound decoder and the outbound frame queue — lives in
   the shared [Conn] channel (the same one the daemon's network edge
   uses); request frames are tagged with their seq so [write_step] can
   stamp dispatch latency the moment a frame fully hits the socket.
   Backpressure surfaces as queue length, never as a master stuck in
   [write]. *)
type conn = {
  c_pid : int;
  c_chan : int Conn.t;
  mutable c_role : string option;  (* from the worker's Hello *)
  mutable c_ping : (int * float) option;  (* heartbeat token, sent at *)
  mutable c_ping_last : float;  (* when the last heartbeat went out *)
}

type slot_state =
  | Live of conn
  | Restarting of float  (* absolute time the replacement may fork *)
  | Failed  (* restart budget exhausted *)

type slot = {
  s_index : int;
  mutable s_state : slot_state;
  mutable s_restarts : int;
  (* Frames this slot's worker currently holds, zombies included: a
     request the master already expired still occupies the worker until
     it grinds through it, so it must keep counting against the slot's
     backlog for spill and shed decisions. *)
  mutable s_busy : int;
  (* EWMA of the per-request service interval, measured between
     consecutive responses while the worker is busy. Survives worker
     restarts — the replacement serves the same sites. *)
  mutable s_ewma : float option;
  mutable s_reply_mark : float;  (* start of the current service interval *)
}

(* Where a request's answer comes from: the frame it was sent in to a
   slot's worker, or the frame of an earlier request carrying the same
   input, which it joined. *)
type route =
  | Slot of int
  | Joined

type pending = {
  p_seq : int;
  p_request : Service.request;
  p_route : route;
  p_deadline : float option;  (* absolute *)
  p_submitted : float;
  p_on_complete : response -> unit;
  mutable p_dispatched : float option;  (* when its frame hit the socket *)
  mutable p_redispatched : bool;
  mutable p_outcome : response option;
}

(* A frame whose input has a memo key, from its submission until its
   answer arrives (on time or late) or no worker will answer it: the
   key its answer is remembered under, and the requests joined to it. *)
type frame = {
  f_key : string;
  mutable f_copies : pending list;  (* newest first *)
}

(* Per-site admission token bucket ([site_quota_rps]). [b_next_hint] is
   the next refill instant not yet promised to a rejected client, so
   simultaneous rejections receive spread-out [retry_after_s] hints
   instead of all naming the same refilled token (which would turn a
   naive client herd into a synchronized retry stampede). *)
type bucket = {
  mutable b_tokens : float;
  mutable b_stamp : float;
  mutable b_next_hint : float;
}

type t = {
  cfg : config;
  capacity : int;
  registry : Metrics.t;
  slots : slot array;
  pending : (int, pending) Hashtbl.t;  (* seq -> in-flight request *)
  (* seq -> slot index, for every frame enqueued to a live worker and
     not yet answered. Unlike [pending] this keeps an entry for a
     request the master already resolved (deadline expiry): the worker
     still has to chew through it, and the spill/shed load model would
     be blind to exactly the overload it exists for if zombie work
     vanished from the books at expiry. *)
  dispatched : (int, int) Hashtbl.t;
  (* Outcome decided, completion callback not yet run. [resolve] only
     marks and enqueues here — it is called from inside Hashtbl.iter
     over [pending] (worker death, deadline expiry), where removing
     entries or running arbitrary callbacks would be unsound. The
     event loop drains this queue at its safe points. *)
  resolved : pending Queue.t;
  (* Extra descriptors a freshly forked worker must close immediately
     (an embedding daemon's listening socket and client connections):
     a worker holding a duplicate would keep those sockets half-open
     after the owner closes them. Runs in the child, post-fork. *)
  mutable fork_hook : unit -> Unix.file_descr list;
  mutable next_seq : int;
  mutable next_token : int;  (* ping tokens *)
  mutable zombies : int list;  (* dead pids not yet reaped *)
  (* The bodies of answered requests, under the workers' own
     request key: a request whose input an earlier one carried is
     answered here, and no worker sees it. One shard, costed in body
     bytes within the workers' cache budget; [None] when the workers
     run without a cache. *)
  memo : Codec.body Shard.t option;
  (* With a memo: seq -> each keyed frame, and memo key -> the seq of
     the frame carrying that input, so a request for an input already
     in flight joins that frame instead of sending its own. *)
  frames : (int, frame) Hashtbl.t;
  joinable : (string, int) Hashtbl.t;
  quota : (string, bucket) Hashtbl.t;
  mutable g_draining : bool;
  mutable shut : bool;
  m_total : Metrics.counter;
  m_ok : Metrics.counter;
  m_failed : Metrics.counter;
  m_redispatches : Metrics.counter;
  m_restarts : Metrics.counter;
  m_lost : Metrics.counter;
  m_deadline : Metrics.counter;
  m_overloaded : Metrics.counter;
  m_late : Metrics.counter;
  m_spilled : Metrics.counter;
  m_shed : Metrics.counter;
  m_quota : Metrics.counter;
  m_ping_timeouts : Metrics.counter;
  m_memo_hits : Metrics.counter;
  g_memo_bytes : Metrics.gauge;
  m_dispatch_s : Metrics.histogram;
  m_turnaround_s : Metrics.histogram;
}

let now () = Unix.gettimeofday ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let live_fds t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         match slot.s_state with Live c -> Some (Conn.fd c.c_chan) | _ -> None)

(* Fork one worker for [slot]. The child closes every other worker's
   parent-side socket it inherited — otherwise a sibling holding the
   descriptor open would mask a dead worker's EOF from the master. *)
let fork_worker t index =
  flush stdout;
  flush stderr;
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match
    try Unix.fork ()
    with e ->
      close_quietly parent_fd;
      close_quietly child_fd;
      raise e
  with
  | 0 ->
    close_quietly parent_fd;
    List.iter close_quietly (live_fds t);
    List.iter close_quietly (t.fork_hook ());
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigpipe Sys.Signal_default;
    (try Worker.run ~socket:child_fd ~config:t.cfg.service
     with _ -> Unix._exit 98);
    Unix._exit 0
  | pid ->
    close_quietly child_fd;
    Unix.set_nonblock parent_fd;
    t.slots.(index).s_state <-
      Live
        {
          c_pid = pid;
          c_chan = Conn.create parent_fd;
          c_role = None;
          c_ping = None;
          c_ping_last = Unix.gettimeofday ();
        }

let create ?(config = default_config) () =
  let procs = max config.procs 1 in
  let registry = Metrics.create () in
  let capacity = 128 * procs in
  (* A worker death must come back from [write] as EPIPE, never as a
     process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      cfg = config;
      capacity;
      registry;
      slots =
        Array.init procs (fun i ->
            {
              s_index = i;
              s_state = Restarting 0.;
              s_restarts = 0;
              s_busy = 0;
              s_ewma = None;
              s_reply_mark = 0.;
            });
      pending = Hashtbl.create 64;
      dispatched = Hashtbl.create 64;
      resolved = Queue.create ();
      fork_hook = (fun () -> []);
      next_seq = 0;
      next_token = 0;
      zombies = [];
      memo =
        Option.map
          (fun (cache : Cache.config) ->
            Shard.create ~shards:1
              ~capacity:(cache.Cache.capacity_mb * 1024 * 1024)
              ~cost:(fun (body : Codec.body) -> String.length (body :> string))
              ())
          config.service.Service.cache;
      frames = Hashtbl.create 64;
      joinable = Hashtbl.create 64;
      quota = Hashtbl.create 16;
      g_draining = false;
      shut = false;
      m_total = Metrics.counter registry "gateway.requests_total";
      m_ok = Metrics.counter registry "gateway.requests_ok";
      m_failed = Metrics.counter registry "gateway.requests_failed";
      m_redispatches = Metrics.counter registry "gateway.redispatches";
      m_restarts = Metrics.counter registry "gateway.worker_restarts";
      m_lost = Metrics.counter registry "gateway.worker_lost";
      m_deadline = Metrics.counter registry "gateway.deadline_exceeded";
      m_overloaded = Metrics.counter registry "gateway.overloaded";
      m_late = Metrics.counter registry "gateway.late_responses";
      m_spilled = Metrics.counter registry "gateway.spilled";
      m_shed = Metrics.counter registry "gateway.shed";
      m_quota = Metrics.counter registry "gateway.quota_rejected";
      m_ping_timeouts = Metrics.counter registry "gateway.ping_timeouts";
      m_memo_hits = Metrics.counter registry "gateway.memo_hits";
      g_memo_bytes = Metrics.gauge registry "gateway.memo_bytes";
      m_dispatch_s = Metrics.histogram registry "gateway.dispatch_seconds";
      m_turnaround_s = Metrics.histogram registry "gateway.turnaround_seconds";
    }
  in
  Array.iteri (fun i _ -> fork_worker t i) t.slots;
  Metrics.set (Metrics.gauge registry "gateway.procs") (float_of_int procs);
  t

let config t = t.cfg
let procs t = Array.length t.slots
let metrics t = t.registry
let draining t = t.g_draining

let live_workers t f =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         match slot.s_state with
         | Live c -> Some (f slot.s_index c)
         | Restarting _ | Failed -> None)

let worker_pids t = live_workers t (fun slot c -> (slot, c.c_pid))

let worker_roles t =
  live_workers t (fun slot c ->
      (slot, c.c_pid, Option.value c.c_role ~default:"unknown"))

(* Affinity: all requests of one site map to one slot, so the site's
   warm template cache has exactly one home process. *)
let slot_of_site ~procs site =
  let digest = Digest.string site in
  let h =
    Char.code digest.[0]
    lor (Char.code digest.[1] lsl 8)
    lor (Char.code digest.[2] lsl 16)
  in
  h mod procs

(* ---------------------- the degradation ladder ---------------------- *)

(* Per-site token bucket, refilled lazily at admission time. The burst
   allowance equals one second of quota (at least 1), so a site under
   its rate never sees a rejection from bucket granularity alone. *)
let quota_admit t (request : Service.request) =
  match t.cfg.site_quota_rps with
  | None -> Ok ()
  | Some rate when rate <= 0. -> Ok ()
  | Some rate ->
    let burst = Float.max rate 1. in
    let site = request.Service.site in
    let bucket =
      match Hashtbl.find_opt t.quota site with
      | Some bucket -> bucket
      | None ->
        let bucket =
          { b_tokens = burst; b_stamp = now (); b_next_hint = 0. }
        in
        Hashtbl.replace t.quota site bucket;
        bucket
    in
    let at = now () in
    bucket.b_tokens <-
      Float.min burst (bucket.b_tokens +. ((at -. bucket.b_stamp) *. rate));
    bucket.b_stamp <- at;
    if bucket.b_tokens >= 1. then begin
      bucket.b_tokens <- bucket.b_tokens -. 1.;
      Ok ()
    end
    else begin
      (* De-correlated hint: each rejection is promised its own refill
         instant — the first one the time the next token exists, every
         further same-tick rejection one refill interval later. Promises
         in the past (the herd already drained) expire via the max. *)
      let slot =
        Float.max (at +. ((1. -. bucket.b_tokens) /. rate)) bucket.b_next_hint
      in
      bucket.b_next_hint <- slot +. (1. /. rate);
      Error (Quota_exceeded { site; retry_after_s = slot -. at })
    end

(* Adaptive affinity: a request's home is still its site-digest slot —
   that worker holds the site's warm template cache — but when the home
   worker's backlog is past [spill_threshold] frames (or the slot is
   down), the request goes to the least-loaded live worker instead,
   trading cache locality for tail latency. Deterministic: ties break
   to the lowest slot index. Returns the slot and whether it spilled. *)
let choose_slot t site =
  let preferred = slot_of_site ~procs:(procs t) site in
  match t.cfg.spill_threshold with
  | None -> (preferred, false)
  | Some threshold ->
    let load index =
      match t.slots.(index).s_state with
      | Live _ -> Some t.slots.(index).s_busy
      | Restarting _ | Failed -> None
    in
    let preferred_ok =
      match load preferred with
      | Some busy -> busy <= threshold
      | None -> false
    in
    if preferred_ok then (preferred, false)
    else begin
      let best = ref None in
      Array.iter
        (fun slot ->
          match load slot.s_index with
          | Some busy -> (
            match !best with
            | Some (_, best_busy) when best_busy <= busy -> ()
            | _ -> best := Some (slot.s_index, busy))
          | None -> ())
        t.slots;
      match !best with
      | Some (index, _) when index <> preferred -> (index, true)
      | Some _ | None -> (preferred, false)
    end

(* Smoothing factor for the per-worker service-time EWMA. *)
let ewma_alpha = 0.3

(* Deadline-aware shedding: admit a request only if the worker it was
   routed to can plausibly answer within the deadline. The estimate is
   the slot's service-time EWMA times the frames already ahead of it
   (zombies included) plus itself; a slot that has never answered is
   seeded from the turnaround histogram's mean. The seed can be
   polluted by past expiries (an expiry observes ~the deadline), so it
   only sheds off a non-empty backlog — an idle worker with no genuine
   measurement always gets the request. *)
let shed_check t index =
  match (t.cfg.shed, t.cfg.deadline_s) with
  | false, _ | _, None -> Ok ()
  | true, Some deadline_s -> (
    let slot = t.slots.(index) in
    let estimate =
      match slot.s_ewma with
      | Some e -> Some (e, true)
      | None ->
        let s = Metrics.summary t.m_turnaround_s in
        if s.Metrics.count > 0 then Some (Metrics.mean s, false) else None
    in
    match estimate with
    | None -> Ok ()
    | Some (per_request, genuine) ->
      let predicted_s = per_request *. float_of_int (slot.s_busy + 1) in
      if predicted_s > deadline_s && (genuine || slot.s_busy > 0) then
        Error (Shed { predicted_s; deadline_s })
      else Ok ())

(* A request frame was committed to [index]'s outbox: it now counts
   against that worker's backlog until a Response for its seq arrives
   or the worker dies. *)
let track_dispatch t index seq =
  let slot = t.slots.(index) in
  if slot.s_busy = 0 then slot.s_reply_mark <- now ();
  slot.s_busy <- slot.s_busy + 1;
  Hashtbl.replace t.dispatched seq index

(* A Response for [seq] arrived (on time or late): release the backlog
   slot and fold the observed service interval into the worker's EWMA. *)
let untrack_dispatch t seq =
  match Hashtbl.find_opt t.dispatched seq with
  | None -> ()
  | Some index ->
    Hashtbl.remove t.dispatched seq;
    let slot = t.slots.(index) in
    slot.s_busy <- max 0 (slot.s_busy - 1);
    let at = now () in
    let sample = at -. slot.s_reply_mark in
    slot.s_reply_mark <- at;
    slot.s_ewma <-
      Some
        (match slot.s_ewma with
        | None -> sample
        | Some e -> (ewma_alpha *. sample) +. ((1. -. ewma_alpha) *. e))

let publish_worker_gauges t =
  Array.iter
    (fun slot ->
      Metrics.set
        (Metrics.gauge t.registry
           (Printf.sprintf "gateway.worker%d.inflight" slot.s_index))
        (float_of_int slot.s_busy))
    t.slots

(* ------------------------- result accounting ------------------------ *)

let count_outcome t = function
  | Ok _ -> Metrics.incr t.m_ok
  | Error e ->
    Metrics.incr t.m_failed;
    (match e with
    | Deadline_exceeded -> Metrics.incr t.m_deadline
    | Gateway_overloaded _ -> Metrics.incr t.m_overloaded
    | Worker_lost _ -> Metrics.incr t.m_lost
    | Quota_exceeded _ -> Metrics.incr t.m_quota
    | Shed _ -> Metrics.incr t.m_shed
    | Draining | Service_error _ -> ())

(* A joined request, like a memo hit, leaves the turnaround histogram
   alone, since it seeds the shedding model of a worker's service time;
   answered [Ok], it counts as a memo hit. *)
let resolve t pending response =
  if pending.p_outcome = None then begin
    pending.p_outcome <- Some response;
    (match (pending.p_route, response.outcome) with
    | Slot _, _ ->
      Metrics.observe t.m_turnaround_s (now () -. pending.p_submitted)
    | Joined, Ok _ -> Metrics.incr t.m_memo_hits
    | Joined, Error _ -> ());
    count_outcome t response.outcome;
    Queue.push pending t.resolved
  end

let failure (pending : pending) error =
  {
    id = pending.p_request.Service.id;
    outcome = Error error;
    cache_hit = false;
    latency_s = 0.;
  }

(* Run completion callbacks for everything [resolve] queued. Only
   called at event-loop safe points (never while iterating [pending]);
   pop-per-item keeps it reentrancy-safe should a callback submit new
   work. Returns how many callbacks ran. *)
let deliver_resolved t =
  let delivered = ref 0 in
  while not (Queue.is_empty t.resolved) do
    let pending = Queue.pop t.resolved in
    Hashtbl.remove t.pending pending.p_seq;
    incr delivered;
    match pending.p_outcome with
    | Some response -> pending.p_on_complete response
    | None -> ()
  done;
  !delivered

let refusal t (request : Service.request) error =
  Metrics.incr t.m_total;
  count_outcome t (Error error);
  { id = request.id; outcome = Error error; cache_hit = false; latency_s = 0. }

(* The worker's body passes through unread. *)
let of_service_reply (reply : Service.reply) =
  {
    id = reply.Service.id;
    outcome = Result.map_error (fun e -> Service_error e) reply.Service.outcome;
    cache_hit = reply.Service.cache_hit;
    latency_s = reply.Service.latency_s;
  }

(* ----------------------------- the memo ----------------------------- *)

(* The memo and a request's key in it. *)
let memo_key t (request : Service.request) =
  Option.map
    (fun memo ->
      ( memo,
        Cache.request_key ~method_:t.cfg.service.Service.method_
          request.Service.input ))
    t.memo

let open_frame t seq key =
  Hashtbl.replace t.frames seq { f_key = key; f_copies = [] };
  Hashtbl.replace t.joinable key seq

(* The frame [seq] is done with: answered, or lost. *)
let close_frame t seq =
  match Hashtbl.find_opt t.frames seq with
  | None -> None
  | Some frame ->
    Hashtbl.remove t.frames seq;
    Hashtbl.remove t.joinable frame.f_key;
    Some frame

(* No worker will answer the frame [seq]: its copies are lost with it. *)
let frame_lost t seq reason =
  Option.iter
    (fun frame ->
      List.iter
        (fun copy -> resolve t copy (failure copy (Worker_lost reason)))
        (List.rev frame.f_copies))
    (close_frame t seq)

(* A request answered from the memo, as a refusal is answered: inside
   [submit]. The turnaround histogram is left alone, since it seeds the
   shedding model of a worker's service time. *)
let memo_answer t (request : Service.request) ~started body =
  Metrics.incr t.m_total;
  Metrics.incr t.m_memo_hits;
  count_outcome t (Ok ());
  {
    id = request.id;
    outcome = Ok body;
    cache_hit = true;
    latency_s = now () -. started;
  }

(* The answer to a keyed frame, on time or late: an [Ok] body answers
   the next request that carries the same input, and every copy joined
   to the frame gets the answer, under its own id. *)
let answer_frame t seq response =
  Option.iter
    (fun frame ->
      (match (t.memo, response.outcome) with
      | Some memo, Ok body ->
        Shard.store memo frame.f_key body;
        Metrics.set t.g_memo_bytes
          (float_of_int (Shard.stats memo).Shard.cost)
      | _ -> ());
      List.iter
        (fun copy ->
          resolve t copy
            { response with
              id = copy.p_request.Service.id;
              cache_hit = Result.is_ok response.outcome })
        (List.rev frame.f_copies))
    (close_frame t seq)

(* --------------------------- the event loop ------------------------- *)

let enqueue_frame conn frame seq =
  match seq with
  | Some seq -> Conn.send ~tag:seq conn.c_chan frame
  | None -> Conn.send conn.c_chan frame

(* Commit [pending]'s frame to [index]'s live worker. *)
let dispatch t index conn pending =
  let seq = pending.p_seq and request = pending.p_request in
  enqueue_frame conn (Wire.encode (Wire.Request { seq; request })) (Some seq);
  track_dispatch t index seq

(* Push the (re)dispatchable frames of every unresolved pending request
   assigned to a now-live slot. Called right after a fork. *)
let dispatch_pending_to t index conn =
  Hashtbl.iter
    (fun _ pending ->
      if pending.p_route = Slot index && pending.p_outcome = None then
        dispatch t index conn pending)
    t.pending

(* A worker's socket went dead: close it, account the death, schedule a
   restart (or fail the slot), and decide the fate of its in-flight
   requests — re-dispatch each at most once. A frame it held that will
   not be sent again (its request lost, or already resolved) takes the
   copies joined to it down with it. *)
let worker_dead t slot conn reason =
  close_quietly (Conn.fd conn.c_chan);
  t.zombies <- conn.c_pid :: t.zombies;
  (* Whatever the worker was holding died with it: wipe its backlog so
     the replacement starts with clean load accounting (surviving
     pendings are re-tracked when they are re-dispatched). *)
  let held =
    Hashtbl.fold
      (fun seq index acc -> if index = slot.s_index then seq :: acc else acc)
      t.dispatched []
  in
  List.iter (Hashtbl.remove t.dispatched) held;
  slot.s_busy <- 0;
  let can_restart = (not t.shut) && slot.s_restarts < t.cfg.max_restarts in
  if can_restart then begin
    let backoff =
      min t.cfg.backoff_cap_s
        (t.cfg.backoff_s *. (2. ** float_of_int slot.s_restarts))
    in
    slot.s_restarts <- slot.s_restarts + 1;
    Metrics.incr t.m_restarts;
    slot.s_state <- Restarting (now () +. backoff)
  end
  else slot.s_state <- Failed;
  Hashtbl.iter
    (fun _ pending ->
      if pending.p_route = Slot slot.s_index && pending.p_outcome = None then
        if pending.p_redispatched || not can_restart then
          resolve t pending (failure pending (Worker_lost reason))
        else begin
          pending.p_redispatched <- true;
          pending.p_dispatched <- None;
          Metrics.incr t.m_redispatches
        end)
    t.pending;
  List.iter
    (fun seq ->
      match Hashtbl.find_opt t.pending seq with
      | Some { p_outcome = None; _ } -> () (* re-dispatched at the restart *)
      | Some _ | None -> frame_lost t seq reason)
    held

let reap t =
  t.zombies <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false)
      t.zombies

let handle_message t conn = function
  | Wire.Hello { role; _ } -> conn.c_role <- Some role
  | Wire.Pong token ->
    if Option.map fst conn.c_ping = Some token then conn.c_ping <- None
  | Wire.Response { seq; reply } -> (
    untrack_dispatch t seq;
    let response = of_service_reply reply in
    (match Hashtbl.find_opt t.pending seq with
    | Some pending when pending.p_outcome = None -> resolve t pending response
    | Some _ | None ->
      (* Deadline already resolved it, or it belongs to a previous
         batch: late, counted, dropped. *)
      Metrics.incr t.m_late);
    answer_frame t seq response)
  | Wire.Request _ | Wire.Ping _ | Wire.Shutdown ->
    (* Workers never send these; ignore rather than kill. *)
    ()

(* Pull whatever the socket has through the shared connection buffer
   and hand each decoded payload to the dispatcher. A payload the
   framing accepted but [Marshal] rejects is the same betrayal as a bad
   CRC — the stream has no resync, so the worker is declared dead. *)
let read_step t slot conn =
  let { Conn.frames; closed; _ } = Conn.read_step conn.c_chan in
  let dead = ref None in
  List.iter
    (fun payload ->
      if !dead = None then
        match Wire.decode_payload payload with
        | Ok message -> handle_message t conn message
        | Error _ -> dead := Some "protocol error on socket")
    frames;
  (match (!dead, closed) with
  | Some _, _ -> ()
  | None, Some reason -> dead := Some (Conn.close_reason_message reason)
  | None, None -> ());
  match !dead with
  | Some reason -> worker_dead t slot conn reason
  | None -> ()

let write_step t slot conn =
  match Conn.write_step conn.c_chan with
  | `Closed -> worker_dead t slot conn "broken pipe on dispatch"
  | `Sent seqs ->
    List.iter
      (fun seq ->
        match Hashtbl.find_opt t.pending seq with
        | Some pending when pending.p_dispatched = None ->
          pending.p_dispatched <- Some (now ());
          Metrics.observe t.m_dispatch_s (now () -. pending.p_submitted)
        | _ -> ())
      seqs

(* Restart every slot whose backoff has elapsed, and re-dispatch its
   surviving pendings to the replacement. *)
let restart_due t =
  if not t.shut then
    Array.iter
      (fun slot ->
        match slot.s_state with
        | Restarting at when at <= now () ->
          fork_worker t slot.s_index;
          (match slot.s_state with
          | Live conn -> dispatch_pending_to t slot.s_index conn
          | _ -> ())
        | _ -> ())
      t.slots

(* Wedged-worker detection ([ping_timeout_s]): every live worker owes a
   Pong within the timeout of a heartbeat Ping. A worker that stops
   answering — stuck, not crashed: its socket is still open, so the
   EOF-based supervision never fires — is SIGKILLed and goes through
   the ordinary restart path (capped backoff, at-most-once
   re-dispatch). Workers answer pings behind their queued requests, so
   the timeout must exceed the worst queue drain the caller is willing
   to tolerate; [None] (the default) keeps today's behavior where only
   the socket decides life and death. *)
let heartbeat t =
  match t.cfg.ping_timeout_s with
  | None -> ()
  | Some timeout ->
    Array.iter
      (fun slot ->
        match slot.s_state with
        | Live conn -> (
          match conn.c_ping with
          | Some (_, sent) when now () -. sent > timeout ->
            Metrics.incr t.m_ping_timeouts;
            (try Unix.kill conn.c_pid Sys.sigkill
             with Unix.Unix_error _ -> ());
            worker_dead t slot conn "ping timeout (worker wedged)"
          | Some _ -> ()
          | None ->
            if now () -. conn.c_ping_last >= timeout /. 2. then begin
              let token = t.next_token in
              t.next_token <- token + 1;
              enqueue_frame conn (Wire.encode (Wire.Ping token)) None;
              conn.c_ping <- Some (token, now ());
              conn.c_ping_last <- now ()
            end)
        | Restarting _ | Failed -> ())
      t.slots

(* A request that expires before its frame reached a worker (its slot
   restarting) will not be sent: the copies joined to it are lost. *)
let expire_deadlines t =
  Hashtbl.iter
    (fun seq pending ->
      match (pending.p_outcome, pending.p_deadline) with
      | None, Some deadline when deadline <= now () ->
        resolve t pending (failure pending Deadline_exceeded);
        if pending.p_route <> Joined && not (Hashtbl.mem t.dispatched seq)
        then frame_lost t seq "its request expired before reaching a worker"
      | _ -> ())
    t.pending

(* Earliest instant anything is scheduled to happen: a deadline expiry,
   a slot restart, or the next heartbeat turn. Bounds the select
   timeout. *)
let next_event_in t =
  let soonest = ref 0.25 in
  let note at =
    let dt = at -. now () in
    if dt < !soonest then soonest := max dt 0.
  in
  (match t.cfg.ping_timeout_s with
  | Some timeout -> if timeout /. 4. < !soonest then soonest := timeout /. 4.
  | None -> ());
  Array.iter
    (fun slot ->
      match slot.s_state with Restarting at -> note at | _ -> ())
    t.slots;
  Hashtbl.iter
    (fun _ pending ->
      match (pending.p_outcome, pending.p_deadline) with
      | None, Some deadline -> note deadline
      | _ -> ())
    t.pending;
  !soonest

(* One turn of the master loop: fire timers, move bytes, parse frames,
   deliver completions. Never blocks longer than the next scheduled
   event, [max_wait_s] if the caller's own loop owns the real select
   (the daemon), or at all while completions are waiting. *)
let step ?(max_wait_s = infinity) t =
  restart_due t;
  heartbeat t;
  expire_deadlines t;
  reap t;
  let delivered = deliver_resolved t in
  let conns =
    Array.to_list t.slots
    |> List.filter_map (fun slot ->
           match slot.s_state with Live c -> Some (slot, c) | _ -> None)
  in
  let reads = List.map (fun (_, c) -> Conn.fd c.c_chan) conns in
  let writes =
    conns
    |> List.filter (fun (_, c) -> Conn.pending_output c.c_chan)
    |> List.map (fun (_, c) -> Conn.fd c.c_chan)
  in
  let timeout =
    if delivered > 0 then 0.
    else Float.min (next_event_in t) max_wait_s
  in
  (match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    List.iter
      (fun (slot, conn) ->
        if List.mem (Conn.fd conn.c_chan) writable then
          write_step t slot conn)
      conns;
    List.iter
      (fun (slot, conn) ->
        match slot.s_state with
        | Live current when current == conn ->
          if List.mem (Conn.fd conn.c_chan) readable then
            read_step t slot conn
        | _ -> () (* the write step already declared it dead *))
      conns);
  ignore (deliver_resolved t);
  (* after the reads, so the gauges hold the backlog this turn left *)
  publish_worker_gauges t

(* --------------------------- the public API ------------------------- *)

(* A new pending request under a fresh seq, counted. *)
let admit t ~on_complete (request : Service.request) route =
  Metrics.incr t.m_total;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let pending =
    {
      p_seq = seq;
      p_request = request;
      p_route = route;
      p_deadline = Option.map (fun d -> now () +. d) t.cfg.deadline_s;
      p_submitted = now ();
      p_on_complete = on_complete;
      p_dispatched = None;
      p_redispatched = false;
      p_outcome = None;
    }
  in
  Hashtbl.replace t.pending seq pending;
  pending

(* Admit one request through the degradation ladder and hand it to the
   fleet; [on_complete] fires exactly once with its response. Refusals
   (draining, the global inflight cap, the per-site quota, shedding)
   and memo hits call back synchronously from inside [submit]; admitted
   work, joined copies included, calls back from a later
   [pump]/[run_batch] event-loop turn. This is the seam the network
   daemon drives: it never wants a batch barrier, just a stream of
   completions it can order per client connection. *)
let submit t ~on_complete (request : Service.request) =
  if t.g_draining || t.shut then on_complete (refusal t request Draining)
  (* The ladder runs in order: the global inflight cap, the per-site
     quota, the memo, a frame in flight with the same input, spill-aware
     placement, then the deadline-feasibility check against the chosen
     worker's backlog. *)
  else if Hashtbl.length t.pending >= t.capacity then
    on_complete
      (refusal t request
         (Gateway_overloaded
            { inflight = Hashtbl.length t.pending; capacity = t.capacity }))
  else
    match quota_admit t request with
    | Error error -> on_complete (refusal t request error)
    | Ok () -> (
      let started = now () in
      let memo = memo_key t request in
      let key = Option.map snd memo in
      match Option.bind memo (fun (memo, key) -> Shard.find memo key) with
      | Some body -> on_complete (memo_answer t request ~started body)
      | None -> (
        match Option.bind key (Hashtbl.find_opt t.joinable) with
        | Some seq ->
          (* no frame, no placement, no shed check: the copy is answered
             with the frame it joins *)
          let copy = admit t ~on_complete request Joined in
          let frame = Hashtbl.find t.frames seq in
          frame.f_copies <- copy :: frame.f_copies
        | None -> (
          let slot_index, spilled = choose_slot t request.Service.site in
          match shed_check t slot_index with
          | Error error -> on_complete (refusal t request error)
          | Ok () -> (
            if spilled then Metrics.incr t.m_spilled;
            let pending = admit t ~on_complete request (Slot slot_index) in
            match t.slots.(slot_index).s_state with
            | Live conn ->
              Option.iter (open_frame t pending.p_seq) key;
              dispatch t slot_index conn pending
            | Restarting _ ->
              (* dispatched when the fork lands *)
              Option.iter (open_frame t pending.p_seq) key
            | Failed ->
              resolve t pending
                (failure pending
                   (Worker_lost "worker slot permanently failed"))))))

let inflight t = Hashtbl.length t.pending
let set_fork_hook t hook = t.fork_hook <- hook
let pump ?(max_wait_s = 0.) t = step ~max_wait_s t

let watch_fds t =
  let conns =
    Array.to_list t.slots
    |> List.filter_map (fun slot ->
           match slot.s_state with Live c -> Some c.c_chan | _ -> None)
  in
  ( List.map Conn.fd conns,
    conns |> List.filter Conn.pending_output |> List.map Conn.fd )

let next_timer_in t =
  if Queue.is_empty t.resolved then next_event_in t else 0.

let run_batch t requests =
  let responses = Array.make (List.length requests) None in
  List.iteri
    (fun pos (request : Service.request) ->
      submit t
        ~on_complete:(fun response -> responses.(pos) <- Some response)
        request)
    requests;
  while Array.exists Option.is_none responses do
    step t
  done;
  Array.to_list responses
  |> List.map (function Some r -> r | None -> assert false)

let install_sigterm t =
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> t.g_draining <- true))

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    (* Ask nicely, flush what we can, then make sure. *)
    Array.iter
      (fun slot ->
        match slot.s_state with
        | Live conn ->
          enqueue_frame conn (Wire.encode Wire.Shutdown) None;
          write_step t slot conn
        | _ -> ())
      t.slots;
    let deadline = now () +. 2.0 in
    let all_exited () =
      Array.for_all
        (fun slot ->
          match slot.s_state with
          | Live conn -> (
            match Unix.waitpid [ Unix.WNOHANG ] conn.c_pid with
            | 0, _ -> false
            | _ -> true
            | exception Unix.Unix_error _ -> true)
          | _ -> true)
        t.slots
    in
    while (not (all_exited ())) && now () < deadline do
      (* Keep servicing sockets so a worker blocked writing a final
         response can finish and see our Shutdown. *)
      step t;
      Wire.sleep_s 0.01
    done;
    Array.iter
      (fun slot ->
        match slot.s_state with
        | Live conn ->
          (match Unix.waitpid [ Unix.WNOHANG ] conn.c_pid with
          | 0, _ ->
            (try Unix.kill conn.c_pid Sys.sigkill
             with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] conn.c_pid)
             with Unix.Unix_error _ -> ())
          | _ -> ()
          | exception Unix.Unix_error _ -> ());
          close_quietly (Conn.fd conn.c_chan);
          slot.s_state <- Failed
        | _ -> ())
      t.slots;
    reap t;
    List.iter
      (fun pid ->
        try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
        with Unix.Unix_error _ -> ())
      t.zombies;
    t.zombies <- []
  end
