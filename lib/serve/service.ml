module Store = Tabseg_store.Store
module Codec = Tabseg_store.Codec

type config = {
  cache : Cache.config option;
  store_dir : string option;
  method_ : Tabseg.Api.method_;
  simulated_fetch_s : float;
}

let default_config =
  {
    cache = Some Cache.default_config;
    store_dir = None;
    method_ = Tabseg.Api.Probabilistic;
    simulated_fetch_s = 0.;
  }

type request = {
  id : string;
  site : string;
  input : Tabseg.Pipeline.input;
}

type error =
  | Worker_crashed of string
  | Invalid_input of Tabseg.Api.input_error

let error_message = function
  | Worker_crashed e -> "worker crashed: " ^ e
  | Invalid_input e -> Tabseg.Api.input_error_message e

type 'a answer = {
  id : string;
  outcome : ('a, error) result;
  cache_hit : bool;
  latency_s : float;
}

type response = Tabseg.Api.result answer
type reply = Codec.body answer

type t = {
  cfg : config;
  cache : Cache.t option;
  store : Store.t option;
  registry : Metrics.t;
  stage_bridge : Tabseg.Instrument.subscription;
  requests_total : Metrics.counter;
  requests_ok : Metrics.counter;
  requests_failed : Metrics.counter;
  cache_hits : Metrics.counter;
  batches : Metrics.counter;
  request_seconds : Metrics.histogram;
  mutable shut_down : bool;
}

let create ?(config = default_config) () =
  let registry = Metrics.create () in
  (* The persistent tier only matters through the cache, so a service
     with caching disabled does not open the store at all. Open and
     hydration (the log scan) are timed into [store.open_seconds]. *)
  let store =
    match (config.cache, config.store_dir) with
    | Some _, Some dir ->
      let started = Unix.gettimeofday () in
      let store = Store.open_store dir in
      Metrics.observe
        (Metrics.histogram registry "store.open_seconds")
        (Unix.gettimeofday () -. started);
      Some store
    | _ -> None
  in
  {
    cfg = config;
    cache =
      Option.map
        (fun c -> Cache.create ~config:c ?store ~metrics:registry ())
        config.cache;
    store;
    registry;
    stage_bridge = Metrics.attach_stages registry;
    requests_total = Metrics.counter registry "requests.total";
    requests_ok = Metrics.counter registry "requests.ok";
    requests_failed = Metrics.counter registry "requests.failed";
    cache_hits = Metrics.counter registry "cache.result_hits";
    batches = Metrics.counter registry "batches.total";
    request_seconds = Metrics.histogram registry "request.seconds";
    shut_down = false;
  }

let config t = t.cfg
let metrics t = t.registry
let cache_stats t = Option.map Cache.stats t.cache
let store_stats t = Option.map Store.stats t.store

(* What answers a request: a memo entry, or a result segmented by a
   service without a cache. *)
type source =
  | Memo of Cache.t * string * Cache.entry
  | Fresh of Tabseg.Api.result

let result_of = function
  | Memo (_, _, entry) -> entry.Cache.result
  | Fresh result -> result

let body_of = function
  | Memo (cache, key, entry) -> Cache.body cache ~key entry
  | Fresh result -> Codec.encode_body result

(* What answers a request, and whether the memo did. *)
let source_of t (request : request) =
  (* the cache and the request's key in it *)
  let memo =
    Option.map
      (fun cache ->
        (cache, Cache.request_key ~method_:t.cfg.method_ request.input))
      t.cache
  in
  let memoized =
    Option.bind memo (fun (cache, key) ->
        Option.map
          (fun entry -> Memo (cache, key, entry))
          (Cache.find_result cache ~key))
  in
  match memoized with
  | Some memo -> (true, Ok memo)
  | None ->
    (* A live deployment would fetch the pages here; the benchmark knob
       models that wait. *)
    if t.cfg.simulated_fetch_s > 0. then Unix.sleepf t.cfg.simulated_fetch_s;
    let template_cache = Option.map Cache.template_cache t.cache in
    ( false,
      match
        Tabseg.Api.segment_result ?template_cache ~method_:t.cfg.method_
          request.input
      with
      | Ok result ->
        Ok
          (match memo with
          | Some (cache, key) ->
            Memo (cache, key, Cache.store_result cache ~key result)
          | None -> Fresh result)
      | Error input_error -> Error (Invalid_input input_error) )

(* One request, answered in [form]. Whatever raises on its way (the
   pipeline, a stage subscriber, the cache, the body's encoding) answers
   this request alone, as [Worker_crashed]; each request counts once in
   [requests.total] and once in [requests.ok] or [requests.failed]. *)
let process form t (request : request) =
  let started = Unix.gettimeofday () in
  Metrics.incr t.requests_total;
  let cache_hit, outcome =
    try
      let cache_hit, outcome = source_of t request in
      (cache_hit, Result.map form outcome)
    with e -> (false, Error (Worker_crashed (Printexc.to_string e)))
  in
  let latency_s = Unix.gettimeofday () -. started in
  Metrics.observe t.request_seconds latency_s;
  (match outcome with
  | Ok _ -> Metrics.incr t.requests_ok
  | Error _ -> Metrics.incr t.requests_failed);
  if cache_hit then Metrics.incr t.cache_hits;
  { id = request.id; outcome; cache_hit; latency_s }

(* Group a batch by site, preserving first-appearance order of groups
   and request order within each group. *)
let group_by_site (requests : request list) =
  let order = Hashtbl.create 16 in
  let groups = ref [] in
  List.iteri
    (fun index (request : request) ->
      match Hashtbl.find_opt order request.site with
      | Some cell -> cell := (index, request) :: !cell
      | None ->
        let cell = ref [ (index, request) ] in
        Hashtbl.replace order request.site cell;
        groups := cell :: !groups)
    requests;
  List.rev_map (fun cell -> List.rev !cell) !groups

(* The site groups run one after another, in first-appearance order. *)
let run_batch_in form t requests =
  if requests = [] then []
  else begin
    Metrics.incr t.batches;
    let responses = Array.make (List.length requests) None in
    List.iter
      (List.iter (fun (index, request) ->
           responses.(index) <- Some (process form t request)))
      (group_by_site requests);
    Array.to_list responses
    |> List.map (function
         | Some response -> response
         | None -> assert false)
  end

let run_batch t requests = run_batch_in result_of t requests

let one form t request =
  match run_batch_in form t [ request ] with
  | [ answer ] -> answer
  | _ -> assert false

let segment_one t request = one result_of t request
let reply_one t request = one body_of t request

let maintenance t = Option.iter Store.refresh t.store

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Tabseg.Instrument.unsubscribe t.stage_bridge;
    Option.iter Store.close t.store
  end
