(** The segmentation service: an in-process façade that turns
    {!Tabseg.Api.segment_result} into a cached, measured
    request/response interface.

    A service owns a {!Metrics} registry wired to the core
    stage-instrumentation bus and, optionally, a {!Cache} (template
    cache + result memo). It runs every request on the caller. Batches
    of requests are grouped by site so the pages of one site run back
    to back — same-site requests share the induced template — and
    responses come back in request order, byte-identical to a
    sequential run.
    Parallelism and isolation come from {!Tabseg_gateway.Gateway},
    whose forked worker processes each host one service. *)

type config = {
  cache : Cache.config option;  (** [None] disables caching *)
  store_dir : string option;
      (** directory of a persistent {!Tabseg_store.Store} backing the
          cache as an L2 tier (conventionally [NAME.tabstore/]); warm
          state survives restarts and is shared across processes. Only
          meaningful with [cache]; [None] (default) keeps the caches
          purely in-memory. *)
  method_ : Tabseg.Api.method_;
  simulated_fetch_s : float;
      (** benchmark knob: sleep this long per cache-missing request to
          model the network fetch a live deployment would perform
          (cache hits serve from the cache and skip it). Default 0.
          It is also how tests and benches model service time and
          stalls behind the gateway and the daemon: with
          [cache = None] every request pays it, and a warmed memo lets
          chosen requests skip it. Nothing a request carries can ask
          for a sleep. *)
}

val default_config : config
(** 64 MB cache, no persistent store, probabilistic method, no
    simulated fetch. *)

type request = {
  id : string;  (** echoed back; not interpreted *)
  site : string;  (** batching key: requests sharing it run together *)
  input : Tabseg.Pipeline.input;
}

type error =
  | Worker_crashed of string
      (** something raised on this request's way (the pipeline, a stage
          subscriber, the cache): the exception, printed. The other
          requests of its batch keep their answers. *)
  | Invalid_input of Tabseg.Api.input_error

val error_message : error -> string

type 'a answer = {
  id : string;
  outcome : ('a, error) result;
  cache_hit : bool;  (** served from the result memo *)
  latency_s : float;  (** time spent processing this request *)
}

type response = Tabseg.Api.result answer
(** An answer for in-process callers: the result itself. *)

type reply = Tabseg_store.Codec.body answer
(** An answer for the wire: the result as its encoded body. A memo hit
    replies with the body its entry keeps, so a served result is
    encoded at most once per entry. *)

type t

val create : ?config:config -> unit -> t

val config : t -> config
val metrics : t -> Metrics.t
val cache_stats : t -> Cache.stats option
(** [None] when caching is off. *)

val store_stats : t -> Tabseg_store.Store.stats option
(** [None] when no persistent store is configured. *)

val run_batch : t -> request list -> response list
(** Process a batch: group by [site] and run the groups one after
    another, in the order each site first appears. The response list is
    in request order. A request that raises resolves as
    [Worker_crashed] alone; each request counts once in
    [requests.total] and once in [requests.ok] or [requests.failed]. *)

val segment_one : t -> request -> response
(** [run_batch] of a singleton. *)

val reply_one : t -> request -> reply
(** {!segment_one} with the result as its body: the memo entry's body
    (encoded and kept on the first ask), or, without a cache, encoded
    now. Used where the answer leaves the process. *)

val maintenance : t -> unit
(** Periodic housekeeping between batches: {!Tabseg_store.Store.refresh}
    the persistent store (a Writer folds reader offload queues into the
    log; a Reader picks up appends and folded entries). No-op without a
    store. A multi-process front-end calls this on its idle tick. *)

val shutdown : t -> unit
(** Detach the metrics bridge from the global instrumentation bus and
    close the persistent store (if any), releasing its writer lock.
    Idempotent. *)
