(** Content-addressed caches for the segmentation pipeline.

    A {e template cache}, a sharded LRU (see {!Shard}) keyed by
    {!Tabseg.Pipeline.page_set_key} of the raw list pages, holds induced
    page templates. Plugged into {!Tabseg.Pipeline.prepare} via
    {!template_cache}, it removes the dominant front-half cost for any
    request over an already-seen list-page set.

    With [~store], a {!Tabseg_store.Store} becomes a {e persistent L2
    tier} behind the template LRU and the home of results: every
    template is written through to the log, every L1 miss consults the
    log, and a decoded L2 hit is promoted back into the LRU. Results
    live in the store only, under their {!request_key}, as the blob
    around their body; an in-memory result memo is the gateway master's
    job ({!Tabseg_gateway.Gateway}). The blobs are versioned and
    digest-verified ({!Tabseg_store.Codec}); anything corrupt or
    version-skewed is a miss, never an error — so a restarted process
    re-serves warm state byte-identically, and a stale store can only
    cost recomputation, never correctness.

    Everything is addressed by content digest, so a hit is
    byte-identical to what a cold run would compute. Cached values must
    be treated as immutable by callers. *)

type config = {
  capacity_mb : int;
      (** the template LRU's approximate byte budget (default 64) *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?store:Tabseg_store.Store.t ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [~store] plugs in the persistent L2 tier. [~metrics] (only
    meaningful with [~store]) registers the L2 counters
    ([store.template_hits], [store.result_hits], [store.misses],
    [store.read_bytes], [store.write_bytes], [store.compactions]) and
    the [store.hydration_seconds] histogram in the given registry. *)

val template_cache : t -> Tabseg.Pipeline.template_cache
(** The hook to pass to {!Tabseg.Pipeline.prepare} /
    {!Tabseg.Api.segment_result}. *)

val request_key :
  ?tag:string -> method_:Tabseg.Api.method_ -> Tabseg.Pipeline.input -> string
(** Content address of a whole segmentation request. [tag] fingerprints
    any non-default engine configuration the caller applies (requests
    served under different configs must not share entries). *)

val find_result : t -> key:string -> Tabseg_store.Codec.body option
(** The body of the result the store holds under [key], its blob
    verified but not unmarshalled. [None] on a miss, and always without
    [~store]. *)

val store_result :
  t -> key:string -> Tabseg.Api.result -> Tabseg_store.Codec.body option
(** With [~store], encode the result and write its blob through under
    [key]; the blob's one [Marshal] also gives the body, returned.
    Without a store nothing is encoded: [None]. *)

type persist_stats = {
  template_hits : int;  (** template L1 misses served by the store *)
  result_hits : int;  (** results served by the store *)
  misses : int;  (** lookups the store could not serve *)
  store : Tabseg_store.Store.stats;
}

type stats = {
  templates : Shard.stats;
  persist : persist_stats option;  (** [None] without [~store] *)
}

val stats : t -> stats

val hit_rate : Shard.stats -> float
(** hits / (hits + misses); 0 when the cache was never consulted. *)
