(** The segmentation service: an in-process façade that turns
    {!Tabseg.Api.segment_result} into a cached, measured
    request/response interface.

    A service owns a {!Metrics} registry wired to the core
    stage-instrumentation bus and, optionally, a {!Cache}: a template
    cache and, over a persistent store, the stored results. It runs
    every request on the caller, in request order, byte-identical to a
    sequential run. A repeated request is answered from the store when
    there is one and segmented again otherwise; the in-memory memo of
    answers is the gateway master's.
    Parallelism and isolation come from {!Tabseg_gateway.Gateway},
    whose forked worker processes each host one service. *)

type config = {
  cache : Cache.config option;  (** [None] disables caching *)
  store_dir : string option;
      (** directory of a persistent {!Tabseg_store.Store} backing the
          template cache as an L2 tier and holding results
          (conventionally [NAME.tabstore/]); warm state survives
          restarts and is shared across processes. Only meaningful with
          [cache]; [None] (default) keeps templates in memory and
          results nowhere. *)
  method_ : Tabseg.Api.method_;
  simulated_fetch_s : float;
      (** benchmark knob: sleep this long per request the store does not
          answer, to model the network fetch a live deployment would
          perform. Default 0. It is also how tests and benches model
          service time and stalls behind the gateway and the daemon:
          every request that reaches a worker without a store pays it,
          and the master's memo lets chosen requests skip the worker.
          Nothing a request carries can ask for a sleep. *)
}

val default_config : config
(** 64 MB cache, no persistent store, probabilistic method, no
    simulated fetch. *)

type request = {
  id : string;  (** echoed back; not interpreted *)
  site : string;
      (** the gateway's affinity and quota key: a site's requests share
          a home worker and a token bucket *)
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
  cache_hit : bool;  (** served from the store *)
  latency_s : float;  (** time spent processing this request *)
}

type response = Tabseg.Api.result answer
(** An answer for in-process callers: the result itself. *)

type reply = Tabseg_store.Codec.body answer
(** An answer for the wire: the result as its encoded body. A store hit
    replies with the body its blob holds, unmarshalled nowhere on the
    way; a miss over a store replies with the body its blob was made
    from, so a served result is encoded once. *)

type t

val create : ?config:config -> unit -> t

val config : t -> config
val metrics : t -> Metrics.t
val cache_stats : t -> Cache.stats option
(** [None] when caching is off. *)

val store_stats : t -> Tabseg_store.Store.stats option
(** [None] when no persistent store is configured. *)

val run_batch : t -> request list -> response list
(** Process a batch, one request after another in request order; a
    stored result is decoded here. A request that raises resolves as
    [Worker_crashed] alone; each request counts once in
    [requests.total] and once in [requests.ok] or [requests.failed]. *)

val segment_one : t -> request -> response
(** [run_batch] of a singleton. *)

val reply_one : t -> request -> reply
(** {!segment_one} with the result as its body: the stored blob's body,
    or the one a miss wrote to the store, or, without a store, encoded
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
