(** A sharded, mutex-per-shard LRU map keyed by content digests.

    Keys are hash-partitioned over [shards] independent shards, each
    with its own lock, LRU list and cost budget — concurrent domains
    contend only when they touch the same shard. Values carry a caller
    supplied cost (an approximate byte size); each shard evicts from its
    least-recently-used end once its share of [capacity] is exceeded.

    Lookups and stores are linearizable per key (same shard, same lock).
    Hit/miss/eviction counts are exact. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** live entries across all shards *)
  cost : int;  (** total cost of live entries *)
  capacity : int;
}

type 'v t

val create : ?shards:int -> capacity:int -> cost:('v -> int) -> unit -> 'v t
(** [capacity] is the total cost budget (split evenly across shards;
    default 8 shards). [cost v] must be positive; a value costlier than
    a whole shard's budget is not cached at all (storing it would only
    thrash the shard). *)

val find : 'v t -> string -> 'v option
(** A hit refreshes the entry's recency. *)

val store : 'v t -> string -> 'v -> unit
(** Insert or overwrite, then evict LRU entries until the shard fits its
    budget again. *)

val stats : 'v t -> stats
