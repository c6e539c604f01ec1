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
    batches = Metrics.counter registry "batches.total";
    request_seconds = Metrics.histogram registry "request.seconds";
    shut_down = false;
  }

let config t = t.cfg
let metrics t = t.registry
let cache_stats t = Option.map Cache.stats t.cache
let store_stats t = Option.map Store.stats t.store

(* A request's answer, and whether the store gave it: [stored] takes the
   body of a stored result, [fresh] a result segmented now and the body
   that writing it to the store encoded ([None] without a store). *)
let answer t (request : request) ~stored ~fresh =
  (* the cache and the request's key in it, when a store holds results *)
  let key =
    match (t.cache, t.store) with
    | Some cache, Some _ ->
      Some (cache, Cache.request_key ~method_:t.cfg.method_ request.input)
    | _ -> None
  in
  match Option.bind key (fun (cache, key) -> Cache.find_result cache ~key) with
  | Some body -> (true, Ok (stored body))
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
          (fresh result
             (Option.bind key (fun (cache, key) ->
                  Cache.store_result cache ~key result)))
      | Error input_error -> Error (Invalid_input input_error) )

(* One request. Whatever raises on its way (the pipeline, a stage
   subscriber, the cache, the body's encoding or decoding) answers this
   request alone, as [Worker_crashed]; each request counts once in
   [requests.total] and once in [requests.ok] or [requests.failed]. *)
let process t ~stored ~fresh (request : request) =
  let started = Unix.gettimeofday () in
  Metrics.incr t.requests_total;
  let cache_hit, outcome =
    try answer t request ~stored ~fresh
    with e -> (false, Error (Worker_crashed (Printexc.to_string e)))
  in
  let latency_s = Unix.gettimeofday () -. started in
  Metrics.observe t.request_seconds latency_s;
  (match outcome with
  | Ok _ -> Metrics.incr t.requests_ok
  | Error _ -> Metrics.incr t.requests_failed);
  { id = request.id; outcome; cache_hit; latency_s }

(* The requests run one after another, in request order. *)
let run t ~stored ~fresh requests =
  if requests <> [] then Metrics.incr t.batches;
  List.map (process t ~stored ~fresh) requests

(* In-process callers read the result, decoding a stored one. *)
let run_batch t = run t ~stored:Codec.decode_body ~fresh:(fun result _ -> result)

(* The wire takes the body: a stored one as its blob holds it, a fresh
   one as the store's write encoded it, or else encoded now. *)
let run_replies t =
  run t ~stored:Fun.id ~fresh:(fun result -> function
    | Some body -> body
    | None -> Codec.encode_body result)

let one run t request =
  match run t [ request ] with
  | [ answer ] -> answer
  | _ -> assert false

let segment_one t request = one run_batch t request
let reply_one t request = one run_replies t request

let maintenance t = Option.iter Store.refresh t.store

let shutdown t =
  if not t.shut_down then begin
    t.shut_down <- true;
    Tabseg.Instrument.unsubscribe t.stage_bridge;
    Option.iter Store.close t.store
  end
