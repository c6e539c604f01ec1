(** Content-addressed caches for the segmentation pipeline.

    Two sharded LRUs (see {!Shard}):

    - a {e template cache} keyed by {!Tabseg.Pipeline.page_set_key} of
      the raw list pages, holding induced page templates — plugged into
      {!Tabseg.Pipeline.prepare} via {!template_cache}, it removes the
      dominant front-half cost for any request over an already-seen
      list-page set;
    - a {e result memo} keyed by the full request content (method,
      config tag, list pages, detail pages), holding complete
      {!Tabseg.Api.result} values — including the observation table's
      extract↔detail match positions — so a repeated request skips the
      pipeline entirely. An entry also keeps the result's encoded
      {!Tabseg_store.Codec.body} once it has one, so a served hit is
      encoded at most once.

    Both caches address by content digest, so a hit is byte-identical to
    what a cold run would compute. Cached values must be treated as
    immutable by callers. Capacities are approximate byte budgets.

    With [~store], a {!Tabseg_store.Store} becomes a {e persistent L2
    tier} behind both LRUs: every store is written through to the log
    (when this process holds the writer lock), every L1 miss consults
    the log, and a decoded L2 hit is promoted back into the L1 LRU. The
    blobs are versioned and digest-verified ({!Tabseg_store.Codec});
    anything corrupt or version-skewed is a miss, never an error — so a
    restarted process re-serves warm state byte-identically, and a
    stale store can only cost recomputation, never correctness. *)

type config = {
  capacity_mb : int;  (** total budget across both caches (default 64) *)
  shards : int;  (** shards per cache (default 8) *)
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

type entry = private {
  result : Tabseg.Api.result;
  body : Tabseg_store.Codec.body option;
      (** the result's encoded form, once it exists: stored with the
          entry from the store's blob, or by {!body} on the first ask *)
}
(** A memoized result. Its cost against [capacity_mb] counts the body's
    bytes when it holds one. *)

val find_result : t -> key:string -> entry option

val store_result : t -> key:string -> Tabseg.Api.result -> entry
(** Store in the memo and, with [~store], write its blob through; the
    blob's one [Marshal] also gives the entry its body. Without a store
    nothing is encoded here. *)

val body : t -> key:string -> entry -> Tabseg_store.Codec.body
(** The entry's body, encoded and stored back under [key] on the first
    ask; later asks on the stored entry return that same string. *)

type persist_stats = {
  template_hits : int;  (** L1 misses served by the store *)
  result_hits : int;
  misses : int;  (** L1 misses the store could not serve either *)
  store : Tabseg_store.Store.stats;
}

type stats = {
  templates : Shard.stats;
  results : Shard.stats;
  persist : persist_stats option;  (** [None] without [~store] *)
}

val stats : t -> stats

val hit_rate : Shard.stats -> float
(** hits / (hits + misses); 0 when the cache was never consulted. *)

val clear : t -> unit
(** Drop the in-memory tiers (the persistent store is left alone). *)
